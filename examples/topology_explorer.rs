//! Topology exploration (the paper's Fig. 1 flow, the scenario its
//! introduction motivates): "which mux topology should implement this
//! instance?" — size every database alternative under the same instance
//! constraints and compare width, power and clock load.
//!
//! ```sh
//! cargo run --example topology_explorer [width] [load_units] [budget_ps]
//! ```

use smart_datapath::core::{explore_parallel, DelaySpec, ParallelOptions, SizingOptions};
use smart_datapath::macros::{MacroSpec, MuxTopology};
use smart_datapath::models::ModelLibrary;
use smart_datapath::sta::Boundary;

fn main() {
    let mut args = std::env::args().skip(1);
    let width: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let load: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(30.0);
    let budget: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(320.0);

    let request = MacroSpec::Mux {
        topology: MuxTopology::StronglyMutexedPass,
        width,
    };
    let lib = ModelLibrary::reference();
    let mut boundary = Boundary::default();
    boundary.output_loads.insert("y".into(), load);
    let spec = DelaySpec::uniform(budget);

    println!("# exploring {width}:1 mux, load {load}, budget {budget} ps\n");
    let table = explore_parallel(
        &request,
        &lib,
        &boundary,
        &spec,
        &SizingOptions::default(),
        &ParallelOptions::from_env(),
    );
    println!(
        "{:<30} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "topology", "width", "power", "clock", "delay ps", "devices"
    );
    for cand in &table.candidates {
        match &cand.result {
            Ok(m) => println!(
                "{:<30} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>8}",
                cand.spec.to_string(),
                m.outcome.total_width,
                m.power.total(),
                m.clock_load,
                m.outcome.measured_delay,
                m.devices
            ),
            Err(e) => println!("{:<30} cannot meet constraints: {e}", cand.spec.to_string()),
        }
    }
    if let Some(best) = table.best_by_width() {
        println!("\nadvisor pick (min width): {}", best.spec);
    }
    if let Some(best) = table.best_by_power() {
        println!("advisor pick (min power): {}", best.spec);
    }
    println!(
        "\n{} of {} candidates met the constraints",
        table.feasible_count(),
        table.candidates.len()
    );
}
