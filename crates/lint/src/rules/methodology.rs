//! `SL001`–`SL004`: the four methodology DRC checks that predate the
//! rule engine. Each rule runs only its own check.

use smart_netlist::{Circuit, ComponentKind, NetId, NetKind};

use crate::engine::{Finding, LintConfig, Severity};

/// `SL001`: domino clock pins off a clock net, and non-clock input pins
/// reading a clock net, in component order.
pub(crate) fn check_clock_wiring(circuit: &Circuit, _cfg: &LintConfig, out: &mut Vec<Finding>) {
    let mut push = |path: &str, net: NetId, message: String| {
        out.push(Finding {
            rule: "SL001",
            severity: Severity::Error,
            path: path.to_owned(),
            nets: vec![circuit.net(net).name.clone()],
            message,
        });
    };
    for (_, comp) in circuit.components() {
        if let ComponentKind::Domino { .. } = comp.kind {
            let clk = comp.conns[0];
            if circuit.net(clk).kind != NetKind::Clock {
                let name = &circuit.net(clk).name;
                push(
                    &comp.path,
                    clk,
                    format!("domino clock pin wired to non-clock net '{name}'"),
                );
            }
        } else {
            for (pin, net) in comp.input_nets() {
                if circuit.net(net).kind == NetKind::Clock && !comp.kind.is_clock_pin(pin) {
                    let name = &circuit.net(net).name;
                    push(
                        &comp.path,
                        net,
                        format!("non-clock input pin reads clock net '{name}'"),
                    );
                }
            }
        }
    }
}

/// `SL002`: domino outputs not marked dynamic (component order), then
/// dynamic nets with no domino driver (net order).
pub(crate) fn check_dynamic_marking(circuit: &Circuit, _cfg: &LintConfig, out: &mut Vec<Finding>) {
    let mut push = |name: &str| {
        out.push(Finding {
            rule: "SL002",
            severity: Severity::Error,
            path: String::new(),
            nets: vec![name.to_owned()],
            message: format!(
                "net '{name}': NetKind::Dynamic marking and domino drivers disagree \
                 (dynamic nets must be domino-driven, domino outputs must be dynamic)"
            ),
        });
    };
    for (_, comp) in circuit.components() {
        if let ComponentKind::Domino { .. } = comp.kind {
            let net = circuit.net(comp.output_net());
            if net.kind != NetKind::Dynamic {
                push(&net.name);
            }
        }
    }
    for (id, net) in circuit.nets() {
        if net.kind == NetKind::Dynamic {
            let domino_driven = circuit
                .drivers_of(id)
                .iter()
                .any(|&d| matches!(circuit.comp(d).kind, ComponentKind::Domino { .. }));
            if !domino_driven {
                push(&net.name);
            }
        }
    }
}

/// `SL003`: every data input of an unfooted (D2) domino gate must be
/// provably low during precharge.
pub(crate) fn check_unfooted_inputs(circuit: &Circuit, _cfg: &LintConfig, out: &mut Vec<Finding>) {
    for (_, comp) in circuit.components() {
        if let ComponentKind::Domino {
            clocked_eval: false,
            ..
        } = comp.kind
        {
            for (pin, net) in comp.input_nets() {
                if pin == 0 {
                    continue; // clock pin
                }
                if !is_monotone_low_in_precharge(circuit, net, 0) {
                    let input = circuit.net(net).name.clone();
                    out.push(Finding {
                        rule: "SL003",
                        severity: Severity::Error,
                        path: comp.path.clone(),
                        nets: vec![input.clone()],
                        message: format!(
                            "unfooted (D2) data input '{input}' is not provably low during \
                             precharge; it can crowbar the uncut pull-down"
                        ),
                    });
                }
            }
        }
    }
}

/// `SL004`: series pass chains deeper than the configured limit
/// (memoized DFS over pass-gate data edges).
pub(crate) fn check_pass_chains(circuit: &Circuit, cfg: &LintConfig, out: &mut Vec<Finding>) {
    let limit = cfg.pass_chain_limit;
    let mut depth = vec![None::<usize>; circuit.net_count()];
    for (id, net) in circuit.nets() {
        let d = pass_depth(circuit, id, &mut depth, 0);
        if d > limit {
            let name = net.name.clone();
            out.push(Finding {
                rule: "SL004",
                severity: Severity::Error,
                path: String::new(),
                nets: vec![name.clone()],
                message: format!(
                    "series pass chain of depth {d} ends at net '{name}' \
                     (methodology limit {limit})"
                ),
            });
        }
    }
}

/// A net is safe for a D2 data pin if every driver is an inverter whose
/// input is itself safe-inverted — i.e. the signal is provably low during
/// precharge. An inverter ON a dynamic node outputs low during precharge;
/// an inverter on THAT is high again, so polarity is tracked two levels
/// at a time.
fn is_monotone_low_in_precharge(circuit: &Circuit, net: NetId, depth: usize) -> bool {
    if depth > 8 {
        return false;
    }
    let drivers = circuit.drivers_of(net);
    if drivers.is_empty() {
        return false; // primary input: static, undisciplined
    }
    drivers.iter().all(|&d| {
        let comp = circuit.comp(d);
        match &comp.kind {
            // The dynamic node itself is high during precharge — a data
            // pin wired straight to it would conduct.
            ComponentKind::Domino { .. } => false,
            ComponentKind::Inverter { .. } => {
                let src = comp.conns[0];
                if circuit.net(src).kind == NetKind::Dynamic {
                    true
                } else {
                    circuit.drivers_of(src).iter().all(|&dd| {
                        let inner = circuit.comp(dd);
                        matches!(inner.kind, ComponentKind::Inverter { .. })
                            && is_monotone_low_in_precharge(circuit, inner.conns[0], depth + 2)
                    })
                }
            }
            _ => false,
        }
    })
}

/// Longest chain of pass gates ending at `net`.
fn pass_depth(circuit: &Circuit, net: NetId, memo: &mut Vec<Option<usize>>, guard: usize) -> usize {
    if guard > circuit.net_count() {
        return 0; // cycle guard
    }
    if let Some(d) = memo[net.index()] {
        return d;
    }
    memo[net.index()] = Some(0); // break cycles
    let mut best = 0;
    for &d in circuit.drivers_of(net) {
        let comp = circuit.comp(d);
        if matches!(comp.kind, ComponentKind::PassGate) {
            let upstream = comp.conns[0]; // data pin
            best = best.max(1 + pass_depth(circuit, upstream, memo, guard + 1));
        }
    }
    memo[net.index()] = Some(best);
    best
}
