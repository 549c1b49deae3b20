//! The rule engine: registry, configuration, and the lint driver.

use std::collections::{BTreeMap, BTreeSet};

use smart_netlist::Circuit;

use crate::report::LintReport;

/// How severe a finding is. `Error`-severity findings gate the
/// exploration flow; `Warning`s are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: legal but risky structure the designer should review.
    Warning,
    /// Methodology violation: the candidate is rejected by the flow gate.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One lint finding.
///
/// Findings are *name-based*: they carry instance paths and net names,
/// never raw ids, so structurally equal circuits produce equal findings
/// regardless of net/component insertion order (the reorder-invariance
/// property the test suite enforces). The derived `Ord` (field order:
/// rule, severity, path, nets, message) is the canonical report order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Finding {
    /// Stable rule id (`"SL101"`).
    pub rule: &'static str,
    /// Effective severity (default, or the configured override).
    pub severity: Severity,
    /// Instance path the finding anchors to (may be empty for net-level
    /// findings with no unique component).
    pub path: String,
    /// Net names involved, in rule-defined order.
    pub nets: Vec<String>,
    /// Human-readable description of the violation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.rule, self.severity)?;
        if !self.path.is_empty() {
            write!(f, " at {}", self.path)?;
        }
        if !self.nets.is_empty() {
            write!(f, " [{}]", self.nets.join(", "))?;
        }
        write!(f, ": {}", self.message)
    }
}

/// A path-based waiver: suppress `rule` (or every rule, `"*"`) for
/// findings anchored under `path_prefix`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// Rule id to waive, or `"*"` for all rules.
    pub rule: String,
    /// Instance-path prefix the waiver covers (`""` covers everything).
    pub path_prefix: String,
}

impl Waiver {
    fn covers(&self, finding: &Finding) -> bool {
        (self.rule == "*" || self.rule == finding.rule)
            && finding.path.starts_with(&self.path_prefix)
    }
}

/// Per-run lint configuration: rule enablement, severity overrides,
/// waivers, and the numeric knobs of the parameterized rules.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Rule ids to skip entirely.
    pub disabled: BTreeSet<String>,
    /// Severity overrides by rule id (e.g. promote `SL104` to `Error`
    /// on a block that must prove all its mutual exclusions).
    pub severities: BTreeMap<String, Severity>,
    /// Path-based waivers applied after severity resolution.
    pub waivers: Vec<Waiver>,
    /// `SL004`: maximum tolerated series pass-gate depth.
    pub pass_chain_limit: usize,
    /// `SL106`: NMOS stack depth at which a domino pull-down network is
    /// flagged for charge-sharing exposure.
    pub charge_share_depth: usize,
    /// `SL111`: fast-corner scale factor applied to the static min-path
    /// stage count (each "stage" is one typical gate delay; a fast corner
    /// shrinks it).
    pub fast_derate: f64,
    /// `SL111`: precharge window, in the same typical-stage units — the
    /// earliest a downstream domino data input may legally rise after the
    /// evaluate clock edge.
    pub precharge_window: f64,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            disabled: BTreeSet::new(),
            severities: BTreeMap::new(),
            waivers: Vec::new(),
            pass_chain_limit: 3,
            charge_share_depth: 3,
            fast_derate: 0.5,
            precharge_window: 1.0,
        }
    }
}

/// A registered rule.
pub struct RuleInfo {
    /// Stable id (`SL` + number; 0xx = methodology DRC, 1xx = graph/dataflow).
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// Severity findings carry unless overridden by configuration.
    pub default_severity: Severity,
    /// One-line description of what the rule enforces.
    pub description: &'static str,
    pub(crate) check: fn(&Circuit, &LintConfig, &mut Vec<Finding>),
}

/// The rule registry, in rule-id order.
pub fn rules() -> &'static [RuleInfo] {
    crate::rules::REGISTRY
}

/// Lints `circuit` under the default configuration.
pub fn lint_circuit(circuit: &Circuit) -> LintReport {
    lint_circuit_with(circuit, &LintConfig::default())
}

/// Lints `circuit` under `config`: runs every enabled rule, applies
/// severity overrides and waivers, and returns the findings in canonical
/// order (sorted, deduplicated) — the foundation of the determinism
/// contract (equal circuits ⇒ byte-equal reports).
pub fn lint_circuit_with(circuit: &Circuit, config: &LintConfig) -> LintReport {
    let mut findings = Vec::new();
    for rule in rules() {
        if config.disabled.contains(rule.id) {
            continue;
        }
        let before = findings.len();
        (rule.check)(circuit, config, &mut findings);
        if let Some(&sev) = config.severities.get(rule.id) {
            for f in &mut findings[before..] {
                f.severity = sev;
            }
        }
    }
    findings.retain(|f| !config.waivers.iter().any(|w| w.covers(f)));
    findings.sort();
    findings.dedup();
    LintReport {
        circuit: circuit.name().to_owned(),
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_sorted() {
        let ids: Vec<&str> = rules().iter().map(|r| r.id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(ids, sorted, "registry must be id-ordered and duplicate-free");
    }

    #[test]
    fn waiver_matches_rule_and_prefix() {
        let f = Finding {
            rule: "SL001",
            severity: Severity::Error,
            path: "u_mux/pg0".into(),
            nets: vec![],
            message: String::new(),
        };
        let hit = Waiver { rule: "SL001".into(), path_prefix: "u_mux".into() };
        let wildcard = Waiver { rule: "*".into(), path_prefix: "".into() };
        let miss_rule = Waiver { rule: "SL002".into(), path_prefix: "u_mux".into() };
        let miss_path = Waiver { rule: "SL001".into(), path_prefix: "u_adder".into() };
        assert!(hit.covers(&f));
        assert!(wildcard.covers(&f));
        assert!(!miss_rule.covers(&f));
        assert!(!miss_path.covers(&f));
    }
}
