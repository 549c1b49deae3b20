//! One timing case per paper table/figure: each case regenerates the
//! corresponding result (at a reduced scale where the full experiment is
//! a multi-second batch job — the `fig*`/`table*` binaries print the
//! full-scale rows).
//!
//! Plain timing harness (`harness = false`), no external bench framework:
//! the workspace builds offline. Run with
//! `cargo bench -p smart-bench --bench experiments`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use smart_bench::{block64, fig5a, fig5b, fig5c, fig6, fig7, paths52, protocol_61, table2};
use smart_blocks::{evaluate_block, table2_blocks};
use smart_core::SizingOptions;
use smart_macros::{MacroSpec, MuxTopology};
use smart_models::ModelLibrary;

fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    black_box(f()); // warmup
    let budget = Duration::from_secs(1);
    let mut times = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget && times.len() < 10 {
        let t0 = Instant::now();
        black_box(f());
        times.push(t0.elapsed());
    }
    times.sort();
    let n = times.len();
    let mean = times.iter().sum::<Duration>() / n as u32;
    println!(
        "{name:<28} min {:>10.1?}  median {:>10.1?}  mean {:>10.1?}  ({n} iters)",
        times[0],
        times[n / 2],
        mean
    );
}

fn main() {
    let lib = ModelLibrary::reference();
    let opts = SizingOptions::default();

    // One representative row per sub-figure; the binaries run all rows.
    bench("fig5/fig5a_row_inc13", || {
        protocol_61(
            "13bitinc",
            &MacroSpec::Incrementor { width: 13 },
            12.0,
            &lib,
            &opts,
        )
        .unwrap()
        .normalized()
    });
    bench("fig5/fig5b_row_zd16", || {
        protocol_61(
            "16bit",
            &MacroSpec::ZeroDetect {
                width: 16,
                style: smart_macros::ZeroDetectStyle::Static,
            },
            12.0,
            &lib,
            &opts,
        )
        .unwrap()
        .normalized()
    });
    bench("fig5/fig5c_row_dec4to16", || {
        protocol_61(
            "4to16",
            &MacroSpec::Decoder { in_bits: 4 },
            8.0,
            &lib,
            &opts,
        )
        .unwrap()
        .normalized()
    });

    bench("table1/row_unsplit_domino", || {
        let row = protocol_61(
            "unsplit",
            &MacroSpec::Mux {
                topology: MuxTopology::UnsplitDomino,
                width: 8,
            },
            14.0,
            &lib,
            &opts,
        )
        .unwrap();
        (row.width_savings(), row.clock_savings())
    });

    // 8-bit sweep for the bench; the binary runs 64 bits.
    bench("fig6/adder_curve_8bit", || fig6(&lib, &opts, 8).len());

    bench("fig7/comparator_exploration", || fig7(&lib, &opts).len());

    bench("blocks/table2_block4", || {
        let spec = &table2_blocks()[3]; // the smallest block
        evaluate_block(spec, &lib, &opts).unwrap().power_savings()
    });
    bench("blocks/block64", || block64(&lib, &opts).power_savings());

    bench("paths52/adder16_compaction", || {
        let s = paths52(&lib, &opts, 16);
        (s.raw, s.compacted)
    });

    // Smoke-level full-table runs (one iteration each is already a batch
    // job; min/median over up to 10 runs is still a stable signal).
    bench("full_tables/fig5a_all_rows", || fig5a(&lib, &opts).len());
    bench("full_tables/fig5b_all_rows", || fig5b(&lib, &opts).len());
    bench("full_tables/fig5c_all_rows", || fig5c(&lib, &opts).len());
    bench("full_tables/table2_all_blocks", || {
        table2(&lib, &opts).len()
    });
}
