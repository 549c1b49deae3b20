//! The rule catalogue.
//!
//! Rule ids are stable API: `SL0xx` are the four methodology DRC checks
//! that predate the engine, `SL1xx` are the dataflow and
//! graph-reachability rules introduced with this crate.

pub(crate) mod connectivity;
pub(crate) mod electrical;
pub(crate) mod methodology;
pub(crate) mod monotonicity;
pub(crate) mod timing;

use crate::engine::{RuleInfo, Severity};

/// All registered rules in id order.
pub(crate) static REGISTRY: &[RuleInfo] = &[
    RuleInfo {
        id: "SL001",
        name: "clock-wiring",
        default_severity: Severity::Error,
        description: "domino clock pins must sit on clock nets, and clock nets \
                      must not feed non-clock inputs",
        check: methodology::check_clock_wiring,
    },
    RuleInfo {
        id: "SL002",
        name: "dynamic-marking",
        default_severity: Severity::Error,
        description: "NetKind::Dynamic marking and domino drivers must agree",
        check: methodology::check_dynamic_marking,
    },
    RuleInfo {
        id: "SL003",
        name: "unfooted-input-discipline",
        default_severity: Severity::Error,
        description: "every data input of an unfooted (D2) domino gate must be \
                      low during precharge",
        check: methodology::check_unfooted_inputs,
    },
    RuleInfo {
        id: "SL004",
        name: "pass-chain-depth",
        default_severity: Severity::Error,
        description: "series pass-gate chains must not exceed the methodology \
                      depth limit",
        check: methodology::check_pass_chains,
    },
    RuleInfo {
        id: "SL101",
        name: "domino-monotonicity",
        default_severity: Severity::Error,
        description: "every domino data input must be monotone-rising during \
                      evaluate (no inverting static logic between stages)",
        check: monotonicity::check,
    },
    RuleInfo {
        id: "SL102",
        name: "dc-sneak-path",
        default_severity: Severity::Error,
        description: "a net must not mix restoring drivers with pass/tri-state \
                      drivers (VDD-to-GND sneak path when both conduct)",
        check: electrical::check_sneak_paths,
    },
    RuleInfo {
        id: "SL103",
        name: "shared-driver-contention",
        default_severity: Severity::Error,
        description: "two pass/tri-state drivers with the same select but \
                      different data fight whenever that select is active",
        check: electrical::check_contention,
    },
    RuleInfo {
        id: "SL104",
        name: "mutex-unproven",
        default_severity: Severity::Warning,
        description: "multiple pass/tri-state drivers whose enables are not \
                      statically provably mutually exclusive",
        check: electrical::check_mutex,
    },
    RuleInfo {
        id: "SL105",
        name: "threshold-drop",
        default_severity: Severity::Warning,
        description: "a pass-driven level feeding a non-restoring load (another \
                      pass data pin, or a domino data input)",
        check: electrical::check_threshold_drops,
    },
    RuleInfo {
        id: "SL106",
        name: "charge-sharing",
        default_severity: Severity::Warning,
        description: "deep domino pull-down stacks expose the dynamic node to \
                      internal-node charge sharing",
        check: electrical::check_charge_sharing,
    },
    RuleInfo {
        id: "SL107",
        name: "floating-net",
        default_severity: Severity::Error,
        description: "a net with loads but no driver and no input port",
        check: connectivity::check_floating,
    },
    RuleInfo {
        id: "SL108",
        name: "undriven-output",
        default_severity: Severity::Error,
        description: "an output port on a net nothing drives",
        check: connectivity::check_undriven_outputs,
    },
    RuleInfo {
        id: "SL109",
        name: "driver-conflict",
        default_severity: Severity::Error,
        description: "several always-on drivers contend for one net",
        check: connectivity::check_driver_conflicts,
    },
    RuleInfo {
        id: "SL110",
        name: "unused-label",
        default_severity: Severity::Warning,
        description: "a size label no device binds (usually a generator bug)",
        check: connectivity::check_unused_labels,
    },
    RuleInfo {
        id: "SL111",
        name: "min-delay-race",
        default_severity: Severity::Warning,
        description: "a domino stage's static min-path interval at the fast \
                      corner undercuts the precharge window (hold race against \
                      the predecessor's precharge)",
        check: timing::check,
    },
];
