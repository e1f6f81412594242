//! Mixed-precision plans: per-layer bit-width overrides.
//!
//! Section V of the paper quantizes RoBERTa's sensitive layers (the
//! self-attention Value FC and the Intermediate FC of the first 6
//! encoders; the first 14 for RoBERTa-Large) at 4 bits while keeping the
//! rest at 3 bits. A [`MixedPrecisionPlan`] expresses exactly that kind
//! of policy over layer names.
//!
//! Layer names follow the `gobo-model` convention
//! `encoder.<index>.<component>` (e.g. `encoder.3.attention.value`),
//! plus `pooler` and `embeddings.<table>`.

use crate::error::QuantError;

/// One override rule: layers whose name contains `component` and whose
/// encoder index (if any) falls within the rule's range get `bits`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerRule {
    /// Substring matched against the layer name (e.g. `"value"`).
    pub component: String,
    /// Inclusive lower bound on the encoder index; `None` matches
    /// layers without an index too.
    pub min_encoder: Option<usize>,
    /// Inclusive upper bound on the encoder index.
    pub max_encoder: Option<usize>,
    /// Bit width this rule assigns.
    pub bits: u8,
}

impl LayerRule {
    /// Returns `true` when the rule applies to `layer_name`.
    pub fn matches(&self, layer_name: &str) -> bool {
        if !layer_name.contains(self.component.as_str()) {
            return false;
        }
        match (parse_encoder_index(layer_name), self.min_encoder, self.max_encoder) {
            (None, None, None) => true,
            (None, _, _) => false, // rule is encoder-scoped, layer isn't
            (Some(_), None, None) => true,
            (Some(i), lo, hi) => lo.is_none_or(|l| i >= l) && hi.is_none_or(|h| i <= h),
        }
    }
}

/// A default bit width plus ordered override rules (first match wins).
///
/// # Example
///
/// ```
/// use gobo_quant::mixed::MixedPrecisionPlan;
///
/// // The paper's RoBERTa policy: Value and Intermediate FCs of the
/// // first 6 encoders at 4 bits, everything else at 3 bits.
/// let plan = MixedPrecisionPlan::roberta_sensitive(3, 4, 6)?;
/// assert_eq!(plan.bits_for("encoder.2.attention.value"), 4);
/// assert_eq!(plan.bits_for("encoder.2.attention.query"), 3);
/// assert_eq!(plan.bits_for("encoder.7.attention.value"), 3);
/// # Ok::<(), gobo_quant::QuantError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixedPrecisionPlan {
    default_bits: u8,
    rules: Vec<LayerRule>,
}

impl MixedPrecisionPlan {
    /// Creates a plan that assigns `default_bits` everywhere.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedBits`] unless
    /// `1 <= default_bits <= 8`.
    pub fn uniform(default_bits: u8) -> Result<Self, QuantError> {
        if !(1..=8).contains(&default_bits) {
            return Err(QuantError::UnsupportedBits { bits: default_bits });
        }
        Ok(MixedPrecisionPlan { default_bits, rules: Vec::new() })
    }

    /// Adds an override rule (evaluated before earlier-added rules'
    /// fallthrough; first match wins in insertion order).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedBits`] for an invalid width and
    /// [`QuantError::InvalidConfig`] for an empty component pattern.
    pub fn with_rule(mut self, rule: LayerRule) -> Result<Self, QuantError> {
        if !(1..=8).contains(&rule.bits) {
            return Err(QuantError::UnsupportedBits { bits: rule.bits });
        }
        if rule.component.is_empty() {
            return Err(QuantError::InvalidConfig { name: "component" });
        }
        self.rules.push(rule);
        Ok(self)
    }

    /// The paper's RoBERTa policy: `sensitive_bits` for the Value and
    /// Intermediate FCs of encoders `0..sensitive_encoders`,
    /// `default_bits` elsewhere.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedBits`] for invalid widths.
    pub fn roberta_sensitive(
        default_bits: u8,
        sensitive_bits: u8,
        sensitive_encoders: usize,
    ) -> Result<Self, QuantError> {
        let hi = sensitive_encoders.saturating_sub(1);
        Self::uniform(default_bits)?
            .with_rule(LayerRule {
                component: "value".to_owned(),
                min_encoder: Some(0),
                max_encoder: Some(hi),
                bits: sensitive_bits,
            })?
            .with_rule(LayerRule {
                component: "intermediate".to_owned(),
                min_encoder: Some(0),
                max_encoder: Some(hi),
                bits: sensitive_bits,
            })
    }

    /// Bit width for a layer name (first matching rule, else default).
    pub fn bits_for(&self, layer_name: &str) -> u8 {
        self.rules.iter().find(|r| r.matches(layer_name)).map_or(self.default_bits, |r| r.bits)
    }

    /// The override rules in evaluation order.
    pub fn rules(&self) -> &[LayerRule] {
        &self.rules
    }
}

/// Extracts `N` from a name containing `encoder.N.`.
fn parse_encoder_index(layer_name: &str) -> Option<usize> {
    let rest = layer_name
        .strip_prefix("encoder.")
        .or_else(|| layer_name.find(".encoder.").map(|i| &layer_name[i + ".encoder.".len()..]))?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_plan_is_constant() {
        let p = MixedPrecisionPlan::uniform(3).unwrap();
        assert_eq!(p.bits_for("encoder.0.attention.query"), 3);
        assert_eq!(p.bits_for("pooler"), 3);
        assert_eq!(p.default_bits, 3);
    }

    #[test]
    fn uniform_validates_bits() {
        assert!(MixedPrecisionPlan::uniform(0).is_err());
        assert!(MixedPrecisionPlan::uniform(9).is_err());
    }

    #[test]
    fn roberta_policy_matches_paper() {
        let p = MixedPrecisionPlan::roberta_sensitive(3, 4, 6).unwrap();
        for e in 0..6 {
            assert_eq!(p.bits_for(&format!("encoder.{e}.attention.value")), 4);
            assert_eq!(p.bits_for(&format!("encoder.{e}.intermediate")), 4);
            assert_eq!(p.bits_for(&format!("encoder.{e}.attention.query")), 3);
            assert_eq!(p.bits_for(&format!("encoder.{e}.output")), 3);
        }
        for e in 6..12 {
            assert_eq!(p.bits_for(&format!("encoder.{e}.attention.value")), 3);
            assert_eq!(p.bits_for(&format!("encoder.{e}.intermediate")), 3);
        }
        assert_eq!(p.bits_for("pooler"), 3);
    }

    #[test]
    fn first_match_wins() {
        let p = MixedPrecisionPlan::uniform(3)
            .unwrap()
            .with_rule(LayerRule {
                component: "value".into(),
                min_encoder: None,
                max_encoder: None,
                bits: 5,
            })
            .unwrap()
            .with_rule(LayerRule {
                component: "attention".into(),
                min_encoder: None,
                max_encoder: None,
                bits: 2,
            })
            .unwrap();
        assert_eq!(p.bits_for("encoder.0.attention.value"), 5);
        assert_eq!(p.bits_for("encoder.0.attention.key"), 2);
    }

    #[test]
    fn encoder_scoped_rule_skips_unindexed_layers() {
        let p = MixedPrecisionPlan::uniform(3)
            .unwrap()
            .with_rule(LayerRule {
                component: "pooler".into(),
                min_encoder: Some(0),
                max_encoder: Some(5),
                bits: 4,
            })
            .unwrap();
        // `pooler` carries no encoder index, so the scoped rule cannot
        // apply.
        assert_eq!(p.bits_for("pooler"), 3);
    }

    #[test]
    fn rule_validation() {
        let base = MixedPrecisionPlan::uniform(3).unwrap();
        assert!(base
            .clone()
            .with_rule(LayerRule {
                component: "".into(),
                min_encoder: None,
                max_encoder: None,
                bits: 4
            })
            .is_err());
        assert!(base
            .with_rule(LayerRule {
                component: "x".into(),
                min_encoder: None,
                max_encoder: None,
                bits: 0
            })
            .is_err());
    }

    #[test]
    fn parses_encoder_indices() {
        assert_eq!(parse_encoder_index("encoder.11.attention.value"), Some(11));
        assert_eq!(parse_encoder_index("bert.encoder.3.output"), Some(3));
        assert_eq!(parse_encoder_index("pooler"), None);
        assert_eq!(parse_encoder_index("embeddings.word"), None);
    }

    #[test]
    fn large_variant_covers_14_encoders() {
        let p = MixedPrecisionPlan::roberta_sensitive(3, 4, 14).unwrap();
        assert_eq!(p.bits_for("encoder.13.attention.value"), 4);
        assert_eq!(p.bits_for("encoder.14.attention.value"), 3);
    }
}
