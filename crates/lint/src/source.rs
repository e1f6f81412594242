//! Source model: lexed files, `#[cfg(test)]` region detection, and the
//! workspace walker.

use std::path::{Path, PathBuf};

use crate::lexer::{tokenize, Token, TokenKind};

/// One lexed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// Raw text, used for line-content lookups in allowlists.
    pub lines: Vec<String>,
    /// Token stream (comments included).
    pub tokens: Vec<Token>,
    /// Inclusive line ranges covered by `#[cfg(test)]` / `#[test]`
    /// items; code inside them is exempt from production-path rules.
    pub test_regions: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lexes `text` as the file `rel_path`.
    pub fn parse(rel_path: impl Into<String>, text: &str) -> Self {
        let tokens = tokenize(text);
        let test_regions = find_test_regions(&tokens);
        SourceFile {
            rel_path: rel_path.into(),
            lines: text.lines().map(str::to_owned).collect(),
            tokens,
            test_regions,
        }
    }

    /// Whether `line` (1-based) falls inside a `#[cfg(test)]` region.
    pub fn in_test_region(&self, line: usize) -> bool {
        self.test_regions.iter().any(|&(start, end)| (start..=end).contains(&line))
    }

    /// The 1-based source line's text, or `""` past the end.
    pub fn line_text(&self, line: usize) -> &str {
        self.lines.get(line.wrapping_sub(1)).map_or("", String::as_str)
    }

    /// Tokens with comments filtered out — most rules match on code
    /// shape and consult comments separately.
    pub fn code_tokens(&self) -> impl Iterator<Item = (usize, &Token)> {
        self.tokens.iter().enumerate().filter(|(_, t)| t.kind != TokenKind::Comment)
    }

    /// Whether any comment ending on `line` or within the contiguous
    /// comment block immediately above `line` contains `needle`. Used
    /// for `// SAFETY:` / `// ORDERING:` adjacency: a trailing comment
    /// on the same line counts, as does a run of comment-only lines
    /// directly above (attributes and blank lines do not break the
    /// run, other code does).
    pub fn has_adjacent_comment(&self, line: usize, needle: &str) -> bool {
        let comment_on = |l: usize, needle: &str| {
            self.tokens.iter().any(|t| {
                t.kind == TokenKind::Comment
                    && t.line <= l
                    && last_line_of(t) >= l
                    && t.text.contains(needle)
            })
        };
        let code_on = |l: usize| {
            self.tokens
                .iter()
                .any(|t| t.kind != TokenKind::Comment && t.line <= l && last_line_of(t) >= l)
        };
        // Trailing comment on the same line.
        if comment_on(line, needle) {
            return true;
        }
        // Walk upward through comment-only, blank, and attribute lines.
        let mut l = line;
        while l > 1 {
            l -= 1;
            let text = self.line_text(l).trim();
            if text.is_empty() || (text.starts_with('#') && !code_on(l)) {
                continue;
            }
            if code_on(l) {
                // Attributes are code tokens too; skip pure-attribute
                // lines but stop at any other code.
                if text.starts_with('#') || text.starts_with("#[") {
                    continue;
                }
                return false;
            }
            if comment_on(l, needle) {
                return true;
            }
            // A comment line without the needle: keep scanning the run.
        }
        false
    }
}

/// Last 1-based line a token touches (strings and comments can span
/// several).
fn last_line_of(t: &Token) -> usize {
    t.line + t.text.matches('\n').count()
}

/// Finds `#[cfg(test)]`-gated items and `#[test]` functions, returning
/// inclusive line ranges. An item's range runs from the attribute to
/// the matching close brace of its body (or the terminating `;` for
/// brace-less items like `use`).
fn find_test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let code: Vec<&Token> = tokens.iter().filter(|t| t.kind != TokenKind::Comment).collect();
    let mut regions = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if let Some(end_attr) = match_test_attribute(&code, i) {
            let start_line = code[i].line;
            // Skip any further attributes stacked on the same item.
            let mut j = end_attr;
            while j < code.len() && code[j].is_punct('#') {
                j = skip_attribute(&code, j);
            }
            // Find the item body: first `{` at nesting depth 0 opens
            // it; a `;` before any `{` ends a brace-less item.
            let mut depth = 0i64;
            let mut end_line = code.get(j).map_or(start_line, |t| t.line);
            while j < code.len() {
                let t = code[j];
                if depth == 0 && t.is_punct(';') {
                    end_line = t.line;
                    break;
                }
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        end_line = t.line;
                        break;
                    }
                }
                end_line = t.line;
                j += 1;
            }
            regions.push((start_line, end_line));
            i = j.max(i + 1);
        } else {
            i += 1;
        }
    }
    regions
}

/// If `code[i]` starts `#[cfg(test)]`, `#[cfg(all(test, …))]`, or
/// `#[test]`, returns the index just past the attribute's closing `]`.
fn match_test_attribute(code: &[&Token], i: usize) -> Option<usize> {
    if !code[i].is_punct('#') {
        return None;
    }
    let open = i + 1;
    if !code.get(open)?.is_punct('[') {
        return None;
    }
    let end = skip_attribute(code, i);
    let inner = &code[open + 1..end.saturating_sub(1).max(open + 1)];
    let is_test = match inner.first() {
        Some(t) if t.is_ident("test") => inner.len() == 1,
        Some(t) if t.is_ident("cfg") => inner.iter().any(|t| t.is_ident("test")),
        _ => false,
    };
    is_test.then_some(end)
}

/// `code[i]` is the `#` of an attribute; returns the index just past
/// its matching `]`.
fn skip_attribute(code: &[&Token], i: usize) -> usize {
    let mut j = i + 1;
    let mut depth = 0i64;
    while j < code.len() {
        if code[j].is_punct('[') {
            depth += 1;
        } else if code[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// The lexed workspace: every `crates/*/src/**/*.rs` file.
#[derive(Debug)]
pub struct Workspace {
    /// Absolute workspace root.
    pub root: PathBuf,
    /// Lexed sources, sorted by relative path.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Loads and lexes every crate source under `root`.
    ///
    /// # Errors
    ///
    /// Returns an error string when `root` is not a workspace (no
    /// `crates/` directory) or a source file cannot be read.
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let crates_dir = root.join("crates");
        if !crates_dir.is_dir() {
            return Err(format!("{} has no crates/ directory", root.display()));
        }
        let mut files = Vec::new();
        let mut rel_paths = Vec::new();
        collect_rs_files(&crates_dir, &mut rel_paths)?;
        rel_paths.sort();
        for abs in rel_paths {
            let rel = abs
                .strip_prefix(root)
                .map_err(|_| "path escaped workspace root".to_owned())?
                .to_string_lossy()
                .replace('\\', "/");
            let text =
                std::fs::read_to_string(&abs).map_err(|e| format!("{}: {e}", abs.display()))?;
            files.push(SourceFile::parse(rel, &text));
        }
        Ok(Workspace { root: root.to_path_buf(), files })
    }

    /// Files whose relative path starts with any of `prefixes`.
    pub fn files_under<'a>(
        &'a self,
        prefixes: &'a [String],
    ) -> impl Iterator<Item = &'a SourceFile> {
        self.files
            .iter()
            .filter(move |f| prefixes.iter().any(|p| f.rel_path.starts_with(p.as_str())))
    }
}

/// Recursively collects `src/**/*.rs` under each crate directory.
fn collect_rs_files(crates_dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(crates_dir).map_err(|e| format!("{}: {e}", crates_dir.display()))?;
    for entry in entries.flatten() {
        let src = entry.path().join("src");
        if src.is_dir() {
            collect_rs_under(&src, out)?;
        }
    }
    Ok(())
}

fn collect_rs_under(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_under(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_is_a_region() {
        let f = SourceFile::parse(
            "x.rs",
            "fn live() { a.unwrap(); }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t() { b.unwrap(); }\n\
             }\n\
             fn live2() {}\n",
        );
        assert!(!f.in_test_region(1));
        assert!(f.in_test_region(2));
        assert!(f.in_test_region(4));
        assert!(!f.in_test_region(6));
    }

    #[test]
    fn cfg_test_on_braceless_item_covers_one_statement() {
        let f = SourceFile::parse(
            "x.rs",
            "#[cfg(test)]\nuse std::collections::HashMap;\nfn live() {}\n",
        );
        assert!(f.in_test_region(2));
        assert!(!f.in_test_region(3));
    }

    #[test]
    fn test_attribute_and_stacked_attributes() {
        let f = SourceFile::parse(
            "x.rs",
            "#[test]\n#[ignore]\nfn t() {\n    x.unwrap();\n}\nfn live() {}\n",
        );
        assert!(f.in_test_region(4));
        assert!(!f.in_test_region(6));
    }

    #[test]
    fn cfg_all_test_counts() {
        let f = SourceFile::parse("x.rs", "#[cfg(all(test, unix))]\nmod t {\n  fn x() {}\n}\n");
        assert!(f.in_test_region(3));
    }

    #[test]
    fn cfg_test_in_comment_or_string_is_ignored() {
        let f = SourceFile::parse(
            "x.rs",
            "// #[cfg(test)] not real\nlet s = \"#[cfg(test)]\";\nfn live() {}\n",
        );
        assert!(f.test_regions.is_empty());
    }

    #[test]
    fn adjacent_comment_lookup() {
        let f = SourceFile::parse(
            "x.rs",
            "// SAFETY: one-line justification\n\
             unsafe { a() };\n\
             let x = 1;\n\
             unsafe { b() };\n\
             let y = 2; // SAFETY: trailing\n",
        );
        assert!(f.has_adjacent_comment(2, "SAFETY:"));
        assert!(!f.has_adjacent_comment(4, "SAFETY:"));
        assert!(f.has_adjacent_comment(5, "SAFETY:"));
    }

    #[test]
    fn adjacent_comment_runs_skip_blank_and_attribute_lines() {
        let f = SourceFile::parse(
            "x.rs",
            "// ORDERING: justified above a gap\n\
             \n\
             #[inline]\n\
             fn f() {}\n",
        );
        assert!(f.has_adjacent_comment(4, "ORDERING:"));
    }
}
