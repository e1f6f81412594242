//! `lint.toml` parsing: a deliberately tiny TOML subset.
//!
//! The configuration language supports exactly what the rules need —
//! `[section]` tables, `key = value` with string / integer / boolean
//! values, and (possibly multi-line) arrays of strings. Anything
//! fancier is a parse error: the config must stay boring enough to
//! review at a glance.

use std::collections::BTreeMap;

/// A parsed configuration value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `"text"`
    Str(String),
    /// `42`
    Int(u64),
    /// `["a", "b"]`
    List(Vec<String>),
}

/// Parsed `lint.toml`: section name → key → value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Config {
    sections: BTreeMap<String, BTreeMap<String, Value>>,
}

impl Config {
    /// Parses configuration text.
    ///
    /// # Errors
    ///
    /// Returns `line-number: message` for malformed lines.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut config = Config::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_owned();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_owned();
                config.sections.entry(section.clone()).or_default();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {}: expected `key = value` or `[section]`", idx + 1));
            };
            let key = key.trim().to_owned();
            let mut value = value.trim().to_owned();
            // Multi-line array: keep consuming until the closing `]`.
            if value.starts_with('[') && !balanced_array(&value) {
                for (_, cont) in lines.by_ref() {
                    value.push(' ');
                    value.push_str(strip_comment(cont).trim());
                    if balanced_array(&value) {
                        break;
                    }
                }
            }
            let parsed = parse_value(&value).map_err(|e| format!("line {}: {e}", idx + 1))?;
            config.sections.entry(section.clone()).or_default().insert(key, parsed);
        }
        Ok(config)
    }

    /// String value at `section.key`.
    pub fn get_str(&self, section: &str, key: &str) -> Option<&str> {
        match self.sections.get(section)?.get(key)? {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer value at `section.key`.
    pub fn get_int(&self, section: &str, key: &str) -> Option<u64> {
        match self.sections.get(section)?.get(key)? {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// String-list value at `section.key`; missing keys yield `&[]`.
    pub fn get_list(&self, section: &str, key: &str) -> &[String] {
        match self.sections.get(section).and_then(|s| s.get(key)) {
            Some(Value::List(items)) => items,
            _ => &[],
        }
    }

    /// Whether `section` exists at all.
    pub fn has_section(&self, section: &str) -> bool {
        self.sections.contains_key(section)
    }
}

/// Strips a `#` comment, respecting `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string => escaped = !escaped,
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => escaped = false,
        }
    }
    line
}

fn balanced_array(s: &str) -> bool {
    let mut in_string = false;
    let mut escaped = false;
    let mut depth = 0i64;
    for c in s.chars() {
        match c {
            '\\' if in_string => escaped = !escaped,
            '"' if !escaped => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => depth -= 1,
            _ => escaped = false,
        }
    }
    depth == 0
}

fn parse_value(value: &str) -> Result<Value, String> {
    if let Some(inner) = value.strip_prefix('[').and_then(|v| v.strip_suffix(']')) {
        let mut items = Vec::new();
        for item in split_top_level(inner) {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let Some(s) = unquote(item) else {
                return Err(format!("array items must be quoted strings, got `{item}`"));
            };
            items.push(s);
        }
        return Ok(Value::List(items));
    }
    if let Some(s) = unquote(value) {
        return Ok(Value::Str(s));
    }
    value
        .replace('_', "")
        .parse::<u64>()
        .map(Value::Int)
        .map_err(|_| format!("cannot parse value `{value}`"))
}

/// Splits on commas outside quoted strings.
fn split_top_level(s: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut current = String::new();
    let mut in_string = false;
    let mut escaped = false;
    for c in s.chars() {
        match c {
            '\\' if in_string => {
                escaped = !escaped;
                current.push(c);
            }
            '"' if !escaped => {
                in_string = !in_string;
                current.push(c);
            }
            ',' if !in_string => {
                items.push(std::mem::take(&mut current));
            }
            _ => {
                escaped = false;
                current.push(c);
            }
        }
    }
    if !current.trim().is_empty() {
        items.push(current);
    }
    items
}

fn unquote(s: &str) -> Option<String> {
    let inner = s.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => out.push(other),
                None => return None,
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_scalars_and_lists() {
        let config = Config::parse(
            "# top comment\n\
             [cast_audit]\n\
             budget = 12\n\
             paths = [\"crates/serve/src\", \"crates/model/src/io.rs\"]\n\
             \n\
             [naming]\n\
             golden = \"crates/serve/tests/golden/metrics_schema.txt\" # trailing\n",
        )
        .unwrap();
        assert_eq!(config.get_int("cast_audit", "budget"), Some(12));
        assert_eq!(
            config.get_list("cast_audit", "paths"),
            ["crates/serve/src".to_owned(), "crates/model/src/io.rs".to_owned()]
        );
        assert_eq!(
            config.get_str("naming", "golden"),
            Some("crates/serve/tests/golden/metrics_schema.txt")
        );
        assert!(config.has_section("naming"));
        assert!(!config.has_section("missing"));
    }

    #[test]
    fn multiline_arrays() {
        let config = Config::parse(
            "[rule]\n\
             allow = [\n\
                 \"alpha\",  # why alpha is fine\n\
                 \"beta\",\n\
             ]\n\
             after = 1\n",
        )
        .unwrap();
        assert_eq!(config.get_list("rule", "allow"), ["alpha".to_owned(), "beta".to_owned()]);
        assert_eq!(config.get_int("rule", "after"), Some(1));
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let config = Config::parse("[a]\nkey = \"value # with hash\"\n").unwrap();
        assert_eq!(config.get_str("a", "key"), Some("value # with hash"));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Config::parse("[a]\nnot a kv pair\n").is_err());
        assert!(Config::parse("[a]\nkey = [1, 2]\n").is_err());
        assert!(Config::parse("[a]\nkey = nonsense\n").is_err());
    }

    #[test]
    fn underscored_integers() {
        let config = Config::parse("[a]\nn = 1_000\n").unwrap();
        assert_eq!(config.get_int("a", "n"), Some(1_000));
    }
}
