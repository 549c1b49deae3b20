//! Byte-stable persistence primitives behind sizing-cache snapshots
//! ([`crate::SizingCache::snapshot`]), the flow's one on-disk format.
//!
//! Every `f64` is encoded as the 16-hex-digit big-endian bit pattern of
//! `f64::to_bits` (decimal formatting would round-trip imprecisely and is
//! locale-adjacent; bit patterns are exact and grep-able), `u128` path
//! counts as 32 hex digits, and names go through the workspace JSON
//! escaper. The loader parses with the shared [`smart_trace::json`]
//! parser, decodes fields by name, and accepts the text only if the
//! decoded entries re-render to the same bytes — so it accepts exactly
//! the writer's canonical form. Anything else (truncated write, hand
//! edit, non-finite width bits) degrades to "no data", never to an error
//! that could take down the flow that tried to read it.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use smart_netlist::Sizing;
use smart_trace::json::{push_str_escaped, Json};

use crate::sizing::{CornerDelay, SizingOutcome};

/// Process-wide counter distinguishing concurrent writers *within* one
/// process; the pid distinguishes writers *across* processes. Together
/// they make every in-flight temp file name unique, so two writers racing
/// on the same target path (two serve requests, two processes saving the
/// same snapshot) can never truncate or rename each other's partial file
/// — each rename atomically publishes a complete file.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The unique temp path for one atomic-write attempt. Lives next to the
/// target so the rename stays within one filesystem.
pub(crate) fn unique_tmp(path: &Path) -> PathBuf {
    let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    path.with_extension(format!("tmp.{}.{n}", std::process::id()))
}

/// Atomically replaces `path` with `contents` via a uniquely named temp
/// file + rename; a failed attempt cleans up its temp file and reports the
/// error.
pub(crate) fn atomic_write(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = unique_tmp(path);
    match std::fs::write(&tmp, contents).and_then(|()| std::fs::rename(&tmp, path)) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Renders the canonical field sequence of one [`SizingOutcome`]:
/// `"iters":… ,"paths":… ,"restarts":… ,"raw_paths":… ,"delay":… ,
/// "precharge":… ,"width":… ,"relax":… ,"binding":… ,"corners":[…],
/// "sizing":[…]` — no surrounding braces, so the snapshot writer can
/// prepend an entry's `"key"` and `"sum"` fields.
pub(crate) fn render_outcome_fields(s: &mut String, row: &SizingOutcome) {
    let _ = write!(
        s,
        "\"iters\":{},\"paths\":{},\"restarts\":{},\"raw_paths\":\"{:032x}\",\
         \"delay\":\"{:016x}\",\"precharge\":\"{:016x}\",\"width\":\"{:016x}\",\
         \"relax\":\"{:016x}\",\"binding\":",
        row.iterations,
        row.constraint_paths,
        row.gp_restarts,
        row.raw_paths,
        row.measured_delay.to_bits(),
        row.measured_precharge.to_bits(),
        row.total_width.to_bits(),
        row.spec_relaxation.to_bits(),
    );
    push_str_escaped(s, &row.binding_corner);
    s.push_str(",\"corners\":[");
    for (k, c) in row.corner_delays.iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        s.push_str("{\"name\":");
        push_str_escaped(s, &c.corner);
        let _ = write!(
            s,
            ",\"data\":\"{:016x}\",\"pre\":\"{:016x}\"}}",
            c.data.to_bits(),
            c.precharge.to_bits(),
        );
    }
    s.push_str("],\"sizing\":[");
    for (k, &w) in row.sizing.as_slice().iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{:016x}\"", w.to_bits());
    }
    s.push(']');
}

/// A hex-string field as a `u64`. Any digit count or case is read here;
/// the loader's re-render check rejects everything but the canonical
/// lower-case 16 digits.
pub(crate) fn hex_u64(v: &Json) -> Option<u64> {
    u64::from_str_radix(v.as_str()?, 16).ok()
}

/// The finite `f64` whose bit pattern is the hex string under `key`.
fn finite(obj: &Json, key: &str) -> Option<f64> {
    hex_u64(obj.get(key)?).map(f64::from_bits).filter(|v| v.is_finite())
}

/// Decodes the fields written by [`render_outcome_fields`] by name,
/// validating everything a live outcome guarantees (finite measurements,
/// positive finite widths, at least one corner, a binding-corner name).
/// Any deviation yields `None` — "no data", never a panic.
pub(crate) fn decode_outcome(entry: &Json) -> Option<SizingOutcome> {
    let count = |k: &str| entry.get(k).and_then(Json::as_usize);
    let mut corner_delays = Vec::new();
    for c in entry.get("corners")?.as_array()? {
        corner_delays.push(CornerDelay {
            corner: c.get("name")?.as_str().filter(|n| !n.is_empty())?.to_owned(),
            data: finite(c, "data")?,
            precharge: finite(c, "pre")?,
        });
    }
    let widths = entry
        .get("sizing")?
        .as_array()?
        .iter()
        // `Sizing::from_widths` treats non-positive/non-finite widths as
        // a caller bug (panic); a damaged file must instead read as "no
        // data".
        .map(|w| hex_u64(w).map(f64::from_bits).filter(|w| w.is_finite() && *w > 0.0))
        .collect::<Option<Vec<f64>>>()?;
    let binding_corner = entry.get("binding")?.as_str()?.to_owned();
    // Every live outcome carries at least one corner measurement and a
    // binding-corner name; a row without them is not ours.
    if widths.is_empty() || corner_delays.is_empty() || binding_corner.is_empty() {
        return None;
    }
    Some(SizingOutcome {
        sizing: Sizing::from_widths(widths),
        measured_delay: finite(entry, "delay")?,
        measured_precharge: finite(entry, "precharge")?,
        total_width: finite(entry, "width")?,
        iterations: count("iters")?,
        constraint_paths: count("paths")?,
        raw_paths: u128::from_str_radix(entry.get("raw_paths")?.as_str()?, 16).ok()?,
        spec_relaxation: finite(entry, "relax")?,
        gp_restarts: count("restarts")?,
        corner_delays,
        binding_corner,
    })
}
