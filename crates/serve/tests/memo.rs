//! The advisor's per-spec structure memo: the cache key it derives
//! without elaborating a macro must equal the key of the elaborated
//! circuit, and the memo must stay bounded without changing any reply.

use smart_core::{cache_key, size_circuit, DelaySpec, ParallelOptions, SizingOptions};
use smart_macros::MacroSpec;
use smart_models::{CornerSet, ModelLibrary};
use smart_serve::json::Json;
use smart_serve::{Advisor, ServeOptions, MEMO_CAP};
use smart_sta::Boundary;

fn serial_advisor() -> Advisor {
    Advisor::new(ServeOptions {
        parallel: Some(ParallelOptions::serial()),
        ..ServeOptions::default()
    })
}

/// Every macro of the benchmark's serve request mix.
const WIRE_MACROS: [&str; 25] = [
    "mux8",
    "mux8:weak",
    "mux2:enc",
    "mux8:tri",
    "mux8:dom",
    "mux8:split",
    "mux4",
    "inc8",
    "inc32",
    "dec8",
    "zd16",
    "zd64",
    "zd16:domino",
    "zd64:domino",
    "decoder3",
    "decoder5",
    "penc3",
    "cmp32",
    "cmp64",
    "cla8",
    "rf16x8",
    "shift8:sll",
    "shift8:srl",
    "shift8:rol",
    "shift32:rol",
];

/// Plants an outcome with a distinctive width under the key of the fully
/// elaborated circuit; a `size` reply (and a `batch` row) carrying that
/// width proves the advisor looked up exactly that key — on the request
/// that fills the memo and on the one that hits it.
#[test]
fn memo_derived_keys_equal_elaborated_keys_at_one_and_three_corners() {
    let lib = ModelLibrary::reference();
    let (load, delay) = (17.0, 333.0);
    let template = {
        let circuit = MacroSpec::parse("mux4").expect("mux4").generate();
        let mut b = Boundary::default();
        b.output_loads.insert("y".into(), load);
        size_circuit(&circuit, &lib, &b, &DelaySpec::uniform(400.0), &SizingOptions::default())
            .expect("template sizing")
    };
    for stf in [false, true] {
        let advisor = serial_advisor();
        let opts = SizingOptions {
            corners: stf.then(|| CornerSet::slow_typical_fast(lib.process())),
            ..SizingOptions::default()
        };
        let corners = if stf { ",\"corners\":\"stf\"" } else { "" };
        for (i, name) in WIRE_MACROS.iter().enumerate() {
            let circuit = MacroSpec::parse(name).expect(name).generate();
            let mut b = Boundary::default();
            for p in circuit.output_ports() {
                b.output_loads.insert(p.name.clone(), load);
            }
            let key = cache_key(&circuit, &lib, &b, &DelaySpec::uniform(delay), &opts);
            let mut planted = template.clone();
            planted.total_width = 1000.0 + i as f64;
            advisor.cache().insert(key, planted);
            let width = format!("\"width\":{:?}", 1000.0 + i as f64);
            for line in [
                format!(
                    "{{\"op\":\"size\",\"macro\":\"{name}\",\"load\":{load},\"delay\":{delay}{corners}}}"
                ),
                format!(
                    "{{\"op\":\"batch\",\"requests\":[{{\"macro\":\"{name}\",\"load\":{load},\"delay\":{delay}}}]{corners}}}"
                ),
            ] {
                let reply = advisor.handle_line(&line).text;
                assert!(reply.contains(&width), "{name} stf={stf}: {reply}");
            }
        }
        assert_eq!(advisor.cache().stats(), (50, 0), "stf={stf}: every lookup hit");
    }
}

fn memo_entries(advisor: &Advisor) -> usize {
    let stats = Json::parse(&advisor.handle_line(r#"{"op":"stats"}"#).text).expect("stats");
    assert_eq!(
        stats.get("memo_cap").and_then(Json::as_usize),
        Some(MEMO_CAP)
    );
    stats
        .get("memo_entries")
        .and_then(Json::as_usize)
        .expect("memo_entries")
}

/// More distinct specs than the memo holds, twice over: the second pass
/// re-elaborates displaced specs and replays every sizing from the cache.
/// Each reply must equal a fresh advisor's reply to the same line. Only
/// the smallest specs are sized; the rest carry a zero budget, which
/// fills the memo for the price of one elaboration and compaction.
#[test]
fn memo_stays_bounded_and_never_changes_a_reply() {
    const SIZED: usize = 32;
    let families = [
        "inc{}", "dec{}", "cla{}", "zd{}", "zd{}:domino", "mux{}", "mux{}:tri", "mux{}:dom",
        "mux{}:weak", "mux{}:split",
    ];
    let names: Vec<String> = (1..=48)
        .flat_map(|w| families.map(|f| f.replace("{}", &w.to_string())))
        .filter(|name| MacroSpec::parse(name).is_some())
        .take(MEMO_CAP + 16)
        .collect();
    assert_eq!(names.len(), MEMO_CAP + 16, "enough distinct wire specs");

    let advisor = serial_advisor();
    let mut fresh = Vec::with_capacity(names.len());
    for (i, name) in names.iter().enumerate() {
        let budget = if i < SIZED { "" } else { ",\"budget_ms\":0" };
        let line = format!("{{\"op\":\"size\",\"macro\":\"{name}\",\"delay\":2000{budget}}}");
        let reply = advisor.handle_line(&line).text;
        let expected = serial_advisor().handle_line(&line).text;
        assert_eq!(reply, expected, "{name}: first pass");
        assert!(memo_entries(&advisor) <= MEMO_CAP);
        fresh.push((line, expected));
    }
    assert_eq!(memo_entries(&advisor), MEMO_CAP);
    let ok = fresh.iter().filter(|(_, r)| r.starts_with("{\"ok\":true")).count();
    assert_eq!(ok, SIZED, "every small spec sizes, every zero budget aborts");
    let (_, misses) = advisor.cache().stats();
    for (line, expected) in &fresh {
        assert_eq!(&advisor.handle_line(line).text, expected, "{line}: second pass");
        assert!(memo_entries(&advisor) <= MEMO_CAP);
    }
    assert_eq!(
        advisor.cache().stats(),
        (SIZED, misses + fresh.len() - SIZED),
        "every sizing of the first pass hits in the second"
    );
}
