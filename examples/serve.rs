//! The resident advisor in-process: drive the daemon engine through its
//! wire protocol without a socket, then prove the serve determinism
//! contract end to end — a warm restart from a cache snapshot replays
//! the same requests byte-identically (DESIGN.md §16).
//!
//! Run: `cargo run --release --example serve`

use smart_datapath::core::ParallelOptions;
use smart_datapath::serve::{run_script, Advisor, ServeOptions};

fn advisor() -> Advisor {
    Advisor::new(ServeOptions {
        // Two workers so `batch` fans out (the protocol is
        // byte-identical at any worker count — that's the point).
        parallel: Some(ParallelOptions::with_workers(2)),
        shards: 4,
        ..ServeOptions::default()
    })
}

const SCRIPT: &str = r#"
{"op":"ping","id":"hello"}
{"op":"size","id":"r1","macro":"mux8:dom","load":20,"delay":320}
{"op":"batch","id":"r2","requests":[{"macro":"zd16:domino"},{"macro":"mux8:dom","load":20,"delay":320},{"macro":"inc8","delay":400}]}
{"op":"cancel","id":"r3"}
{"op":"size","id":"r3","macro":"mux4"}
{"op":"stats","id":"r4"}
"#;

fn replay(advisor: &Advisor) -> String {
    let mut out = Vec::new();
    run_script(advisor, SCRIPT, &mut out).expect("in-process script never fails io");
    String::from_utf8(out).expect("replies are utf-8")
}

fn main() {
    // Cold daemon: first contact pays the GP solves.
    let cold = advisor();
    let cold_replies = replay(&cold);
    print!("{cold_replies}");

    // Snapshot the shared cache, warm-start a fresh daemon (different
    // shard count to show layout does not matter), replay the same
    // script: the work replies must be byte-identical and all sizing
    // must come from the cache.
    let snapshot = cold.cache().snapshot();
    let warm = Advisor::new(ServeOptions {
        parallel: Some(ParallelOptions::with_workers(2)),
        shards: 2,
        ..ServeOptions::default()
    });
    let restored = warm
        .cache()
        .restore(&snapshot)
        .expect("own snapshot always restores");
    let warm_replies = replay(&warm);

    let strip_stats = |s: &str| {
        s.lines()
            .filter(|l| !l.contains("\"op\":\"stats\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip_stats(&cold_replies),
        strip_stats(&warm_replies),
        "warm restart must replay byte-identically"
    );
    assert_eq!(warm.cache().snapshot(), snapshot, "restart is lossless");
    let (hits, _) = warm.cache().stats();
    println!(
        "warm restart: {restored} entries restored, {hits} replayed from cache, replies byte-identical"
    );
}
