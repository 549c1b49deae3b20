//! Audit findings and reports, mirroring the `smart-lint` report shape.
//!
//! The finding record and the JSON encoding are deliberately identical in
//! shape to `smart_lint::Finding` / `LintReport::to_json` — same severity
//! vocabulary, same `{"rule","severity","path","nets","message"}` finding
//! object, same canonical ordering — so any tooling that consumes lint
//! reports consumes audit reports unchanged. For an audit finding, `path`
//! anchors to a *constraint label* or *variable name* (the GP has no
//! instance hierarchy) and `nets` carries the involved constraint labels
//! or variable names, in rule-defined order.

use std::collections::{BTreeMap, BTreeSet};

/// How severe a finding is. `Error`-severity findings gate the sizing
/// flow (via `AuditGate`); `Warning`s are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: legal but degenerate or wasteful structure.
    Warning,
    /// The problem cannot or should not be solved as posed.
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

/// One audit finding. Name-based like lint findings: it carries labels
/// and variable names, never raw constraint indices, so structurally
/// equal problems produce equal findings regardless of constraint
/// insertion order (the reorder-invariance property the test suite
/// enforces). The derived `Ord` (field order: rule, severity, path,
/// nets, message) is the canonical report order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Finding {
    /// Stable rule id (`"SA001"`).
    pub rule: &'static str,
    /// Effective severity (default, or the configured override).
    pub severity: Severity,
    /// Constraint label or variable name the finding anchors to.
    pub path: String,
    /// Involved constraint labels / variable names, rule-defined order.
    pub nets: Vec<String>,
    /// Human-readable description.
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

/// A label-based waiver: suppress `rule` (or every rule, `"*"`) for
/// findings anchored under `label_prefix` — the audit twin of the lint
/// engine's path-prefix waiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// Rule id to waive, or `"*"` for all rules.
    pub rule: String,
    /// Anchor-label prefix the waiver covers (`""` covers everything).
    pub label_prefix: String,
}

impl Waiver {
    pub(crate) fn covers(&self, finding: &Finding) -> bool {
        (self.rule == "*" || self.rule == finding.rule)
            && finding.path.starts_with(&self.label_prefix)
    }
}

/// Per-run audit configuration: rule enablement, severity overrides and
/// waivers.
#[derive(Debug, Clone, Default)]
pub struct AuditConfig {
    /// Rule ids to skip entirely.
    pub disabled: BTreeSet<String>,
    /// Severity overrides by rule id.
    pub severities: BTreeMap<String, Severity>,
    /// Label-based waivers applied after severity resolution.
    pub waivers: Vec<Waiver>,
}

/// A registered audit rule (id, kebab-case name, default severity,
/// one-line description).
pub struct RuleInfo {
    /// Stable id (`SA` + number).
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// Severity findings carry unless overridden by configuration.
    pub default_severity: Severity,
    /// One-line description of what the analysis reports.
    pub description: &'static str,
}

/// The audit rule registry, in rule-id order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "SA001",
        name: "infeasibility-certificate",
        default_severity: Severity::Error,
        description: "interval images of a constraint subset cannot intersect; the GP is infeasible before any Newton work",
    },
    RuleInfo {
        id: "SA002",
        name: "dominated-constraint",
        default_severity: Severity::Warning,
        description: "constraint is term-wise dominated by another active constraint and is redundant (prunable)",
    },
    RuleInfo {
        id: "SA003",
        name: "unbounded-below-variable",
        default_severity: Severity::Warning,
        description: "cost-bearing variable has no derivable lower bound in the log domain (unbounded descent direction)",
    },
    RuleInfo {
        id: "SA004",
        name: "dead-variable",
        default_severity: Severity::Warning,
        description: "variable appears in no constraint and no objective term",
    },
    RuleInfo {
        id: "SA005",
        name: "exponent-spread",
        default_severity: Severity::Warning,
        description: "constraint carries exponents large enough to condition the log-domain Hessian badly",
    },
];

/// Looks up a rule's registry entry.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// The result of auditing one problem: canonical-order findings plus the
/// problem's name, serializable to deterministic JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Name of the audited problem (typically the macro instance).
    pub problem: String,
    /// Findings in canonical order (sorted, deduplicated).
    pub findings: Vec<Finding>,
}

impl AuditReport {
    /// Number of `Error`-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of `Warning`-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Whether any finding is an `Error`.
    pub fn has_errors(&self) -> bool {
        self.errors() > 0
    }

    fn count(&self, sev: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == sev).count()
    }

    /// Serializes the report as JSON, byte-stable: fixed key order,
    /// findings in canonical order — equal reports are byte-equal
    /// strings (the determinism suite compares these bytes across
    /// constraint shuffles and worker counts).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.findings.len() * 96);
        out.push_str("{\"problem\":");
        json_string(&mut out, &self.problem);
        out.push_str(&format!(
            ",\"errors\":{},\"warnings\":{},\"findings\":[",
            self.errors(),
            self.warnings()
        ));
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"rule\":");
            json_string(&mut out, f.rule);
            out.push_str(",\"severity\":");
            json_string(&mut out, &f.severity.to_string());
            out.push_str(",\"path\":");
            json_string(&mut out, &f.path);
            out.push_str(",\"nets\":[");
            for (j, n) in f.nets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json_string(&mut out, n);
            }
            out.push_str("],\"message\":");
            json_string(&mut out, &f.message);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Appends `s` as a JSON string literal (quotes, escapes) — the same
/// encoding `smart-lint` uses, so the two report families stay
/// byte-compatible for consumers.
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Applies configuration to raw findings: severity overrides by rule,
/// waiver filtering, canonical sort + dedup.
pub(crate) fn finalize(
    problem: &str,
    mut findings: Vec<Finding>,
    cfg: &AuditConfig,
) -> AuditReport {
    findings.retain(|f| !cfg.disabled.contains(f.rule));
    for f in &mut findings {
        if let Some(&sev) = cfg.severities.get(f.rule) {
            f.severity = sev;
        }
    }
    findings.retain(|f| !cfg.waivers.iter().any(|w| w.covers(f)));
    findings.sort();
    findings.dedup();
    AuditReport {
        problem: problem.to_owned(),
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_sorted() {
        let ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            ids, sorted,
            "registry must be id-ordered and duplicate-free"
        );
        assert_eq!(
            rule_info("SA001").map(|r| r.default_severity),
            Some(Severity::Error)
        );
        assert!(rule_info("SA999").is_none());
    }

    #[test]
    fn json_matches_the_lint_shape_byte_for_byte() {
        let report = AuditReport {
            problem: "a\"b\\c\n".into(),
            findings: vec![Finding {
                rule: "SA001",
                severity: Severity::Error,
                path: "path0.0 a -> y (eval)".into(),
                nets: vec!["w_x >= 0.6".into()],
                message: "bad".into(),
            }],
        };
        assert_eq!(
            report.to_json(),
            "{\"problem\":\"a\\\"b\\\\c\\n\",\"errors\":1,\"warnings\":0,\
             \"findings\":[{\"rule\":\"SA001\",\"severity\":\"error\",\
             \"path\":\"path0.0 a -> y (eval)\",\"nets\":[\"w_x >= 0.6\"],\
             \"message\":\"bad\"}]}"
        );
    }

    #[test]
    fn config_overrides_waivers_and_dedup_apply() {
        let f = |path: &str| Finding {
            rule: "SA005",
            severity: Severity::Warning,
            path: path.into(),
            nets: vec![],
            message: "m".into(),
        };
        let mut cfg = AuditConfig::default();
        cfg.severities.insert("SA005".into(), Severity::Error);
        cfg.waivers.push(Waiver {
            rule: "SA005".into(),
            label_prefix: "noise".into(),
        });
        let report = finalize("p", vec![f("slope a"), f("noise b"), f("slope a")], &cfg);
        assert_eq!(report.findings.len(), 1, "waived + deduplicated");
        assert_eq!(report.findings[0].severity, Severity::Error);
        let mut off = AuditConfig::default();
        off.disabled.insert("SA005".into());
        assert!(finalize("p", vec![f("slope a")], &off).findings.is_empty());
    }
}
