//! `lint.toml` — which rules run where, at what severity.
//!
//! The built-in defaults mirror the committed `lint.toml` at the
//! workspace root; the file can re-scope or soften any rule, but the
//! binary also runs sensibly with no config file at all (fixture tests
//! rely on that).

use std::collections::BTreeMap;

use crate::diagnostics::Severity;
use crate::rules::RULE_IDS;
use crate::toml;

/// Per-rule scoping and severity.
#[derive(Debug, Clone)]
pub struct RuleConfig {
    /// Effective severity.
    pub severity: Severity,
    /// Crates the rule applies to. Empty means every crate.
    pub crates: Vec<String>,
    /// Crates the rule never applies to (wins over `crates`).
    pub exclude_crates: Vec<String>,
    /// Whether test code (path-based tests/benches/examples and
    /// `#[cfg(test)]` modules) is scanned too.
    pub include_tests: bool,
}

impl RuleConfig {
    fn new(severity: Severity) -> Self {
        RuleConfig {
            severity,
            crates: Vec::new(),
            exclude_crates: Vec::new(),
            include_tests: false,
        }
    }

    /// Whether the rule applies to `krate` at all.
    pub fn applies_to_crate(&self, krate: &str) -> bool {
        if self.severity == Severity::Allow {
            return false;
        }
        if self.exclude_crates.iter().any(|c| c == krate) {
            return false;
        }
        self.crates.is_empty() || self.crates.iter().any(|c| c == krate)
    }
}

/// The whole linter configuration.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Path prefixes (relative, `/`-separated) excluded from the walk.
    pub exclude_paths: Vec<String>,
    /// Baseline file path, relative to the workspace root.
    pub baseline_path: String,
    /// What a ratchet *decrease* does: `Note` nudges to re-baseline,
    /// `Deny` forces it.
    pub on_decrease: Severity,
    /// Rule id → scoping/severity.
    pub rules: BTreeMap<String, RuleConfig>,
}

/// The six determinism-critical crates: exact LP optima, bit-identical
/// fleet runs and byte-identical snapshots live or die here.
pub const DETERMINISM_CRATES: [&str; 6] = ["linalg", "lp", "mdp", "core", "trace", "runtime"];

/// Crates that are tooling or vendored shims, exempt from the
/// behavioral rules (they may time things, read env, etc.).
const TOOLING_CRATES: [&str; 4] = ["bench", "lint", "compat-rand", "compat-proptest"];

impl Default for LintConfig {
    fn default() -> Self {
        let strs = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let mut rules = BTreeMap::new();

        let mut d1 = RuleConfig::new(Severity::Deny);
        d1.crates = strs(&DETERMINISM_CRATES);
        rules.insert("hash-collections".to_string(), d1);

        let mut d2 = RuleConfig::new(Severity::Deny);
        d2.exclude_crates = strs(&TOOLING_CRATES);
        rules.insert("ambient-nondeterminism".to_string(), d2);

        let mut d3 = RuleConfig::new(Severity::Deny);
        d3.exclude_crates = strs(&TOOLING_CRATES);
        rules.insert("float-total-order".to_string(), d3);

        let mut d4 = RuleConfig::new(Severity::Deny);
        d4.include_tests = true;
        rules.insert("unsafe-needs-safety".to_string(), d4);

        let mut p1 = RuleConfig::new(Severity::Deny);
        p1.exclude_crates = strs(&["compat-rand", "compat-proptest"]);
        rules.insert("panic-ratchet".to_string(), p1);

        LintConfig {
            exclude_paths: vec!["crates/lint/tests/fixtures".to_string()],
            baseline_path: "lint-baseline.toml".to_string(),
            on_decrease: Severity::Note,
            rules,
        }
    }
}

impl LintConfig {
    /// Parses a `lint.toml` document and overlays it onto the defaults.
    /// Unknown rules, keys or severities are hard errors: a typo in the
    /// config must not silently widen what the linter lets through.
    pub fn from_toml(src: &str) -> Result<LintConfig, String> {
        let doc = toml::parse(src).map_err(|e| format!("lint.toml: {e}"))?;
        let mut cfg = LintConfig::default();

        if let Some(files) = doc.table("files") {
            for (key, value) in &files.entries {
                match key.as_str() {
                    "exclude" => {
                        cfg.exclude_paths = value
                            .as_str_array()
                            .ok_or("lint.toml: files.exclude must be a string array")?
                            .to_vec();
                    }
                    other => return Err(format!("lint.toml: unknown key files.{other}")),
                }
            }
        }

        if let Some(baseline) = doc.table("baseline") {
            for (key, value) in &baseline.entries {
                match key.as_str() {
                    "file" => {
                        cfg.baseline_path = value
                            .as_str()
                            .ok_or("lint.toml: baseline.file must be a string")?
                            .to_string();
                    }
                    "on-decrease" => {
                        let s = value
                            .as_str()
                            .ok_or("lint.toml: baseline.on-decrease must be a string")?;
                        cfg.on_decrease = Severity::parse(s)
                            .filter(|s| matches!(s, Severity::Note | Severity::Deny))
                            .ok_or(
                                "lint.toml: baseline.on-decrease must be \"note\" or \"deny\"",
                            )?;
                    }
                    other => return Err(format!("lint.toml: unknown key baseline.{other}")),
                }
            }
        }

        for (rule_name, table) in doc.tables_under("rules") {
            if !RULE_IDS.contains(&rule_name) {
                return Err(format!(
                    "lint.toml: unknown rule `{rule_name}` (known: {})",
                    RULE_IDS.join(", ")
                ));
            }
            let rule = cfg
                .rules
                .get_mut(rule_name)
                .ok_or_else(|| format!("lint.toml: rule `{rule_name}` has no default entry"))?;
            for (key, value) in &table.entries {
                match key.as_str() {
                    "severity" => {
                        let s = value.as_str().ok_or_else(|| {
                            format!("lint.toml: rules.{rule_name}.severity must be a string")
                        })?;
                        rule.severity = Severity::parse(s).ok_or_else(|| {
                            format!("lint.toml: rules.{rule_name}.severity: unknown severity `{s}`")
                        })?;
                    }
                    "crates" => {
                        rule.crates = value
                            .as_str_array()
                            .ok_or_else(|| {
                                format!(
                                    "lint.toml: rules.{rule_name}.crates must be a string array"
                                )
                            })?
                            .to_vec();
                    }
                    "exclude-crates" => {
                        rule.exclude_crates = value
                            .as_str_array()
                            .ok_or_else(|| {
                                format!("lint.toml: rules.{rule_name}.exclude-crates must be a string array")
                            })?
                            .to_vec();
                    }
                    "include-tests" => {
                        rule.include_tests = value.as_bool().ok_or_else(|| {
                            format!("lint.toml: rules.{rule_name}.include-tests must be a boolean")
                        })?;
                    }
                    other => {
                        return Err(format!("lint.toml: unknown key rules.{rule_name}.{other}"));
                    }
                }
            }
        }
        Ok(cfg)
    }

    /// The configured rule, if it exists.
    pub fn rule(&self, id: &str) -> Option<&RuleConfig> {
        self.rules.get(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_scope_d1_to_determinism_crates() {
        let cfg = LintConfig::default();
        let d1 = cfg.rule("hash-collections").expect("exists");
        assert!(d1.applies_to_crate("lp"));
        assert!(d1.applies_to_crate("runtime"));
        assert!(!d1.applies_to_crate("bench"));
        assert!(!d1.applies_to_crate("systems"));
    }

    #[test]
    fn overlay_rescopes_and_softens() {
        let cfg = LintConfig::from_toml(
            "[rules.hash-collections]\nseverity = \"warn\"\ncrates = [\"sim\"]\n[baseline]\non-decrease = \"deny\"\n",
        )
        .expect("valid config");
        let d1 = cfg.rule("hash-collections").expect("exists");
        assert_eq!(d1.severity, Severity::Warn);
        assert!(d1.applies_to_crate("sim"));
        assert!(!d1.applies_to_crate("lp"));
        assert_eq!(cfg.on_decrease, Severity::Deny);
    }

    #[test]
    fn unknown_rule_and_key_are_hard_errors() {
        assert!(LintConfig::from_toml("[rules.no-such-rule]\nseverity = \"deny\"\n").is_err());
        assert!(LintConfig::from_toml("[rules.hash-collections]\nseverityy = \"deny\"\n").is_err());
        assert!(LintConfig::from_toml("[rules.hash-collections]\nseverity = \"denyy\"\n").is_err());
    }

    #[test]
    fn allow_disables_a_rule_entirely() {
        let cfg = LintConfig::from_toml("[rules.unsafe-needs-safety]\nseverity = \"allow\"\n")
            .expect("valid config");
        assert!(!cfg
            .rule("unsafe-needs-safety")
            .expect("exists")
            .applies_to_crate("lp"));
    }
}
