//! Byte-stable persistence primitives behind sizing-cache snapshots
//! ([`crate::SizingCache::snapshot`]), the flow's one on-disk format.
//!
//! Every `f64` is encoded as the 16-hex-digit big-endian bit pattern of
//! `f64::to_bits` (decimal formatting would round-trip imprecisely and is
//! locale-adjacent; bit patterns are exact and grep-able), `u128` path
//! counts as 32 hex digits, and the loader accepts exactly the writer's
//! canonical form — anything else (truncated write, hand edit, non-finite
//! width bits) degrades to "no data", never to an error that could take
//! down the flow that tried to read it.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use smart_netlist::Sizing;

use crate::sizing::{CornerDelay, SizingOutcome};

/// Canonical 16-hex-digit rendering of a `u64` (and, via `to_bits`, of an
/// `f64` bit pattern).
pub(crate) fn hex64(v: u64) -> String {
    format!("{v:016x}")
}

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
         \"delay\":\"{}\",\"precharge\":\"{}\",\"width\":\"{}\",\"relax\":\"{}\",\
         \"binding\":\"{}\",\"corners\":[",
        row.iterations,
        row.constraint_paths,
        row.gp_restarts,
        row.raw_paths,
        hex64(row.measured_delay.to_bits()),
        hex64(row.measured_precharge.to_bits()),
        hex64(row.total_width.to_bits()),
        hex64(row.spec_relaxation.to_bits()),
        row.binding_corner,
    );
    for (k, c) in row.corner_delays.iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        // Corner names are serialized verbatim; a name containing `"`
        // or `\` produces a non-canonical file that the loader rejects
        // wholesale ("no data") — such names never round-trip, they can
        // never corrupt a restore.
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"data\":\"{}\",\"pre\":\"{}\"}}",
            c.corner,
            hex64(c.data.to_bits()),
            hex64(c.precharge.to_bits()),
        );
    }
    s.push_str("],\"sizing\":[");
    for (k, &w) in row.sizing.as_slice().iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\"", hex64(w.to_bits()));
    }
    s.push(']');
}

/// Parses the field sequence written by [`render_outcome_fields`],
/// validating everything a live outcome guarantees (finite measurements,
/// positive finite widths, at least one corner, a binding-corner name).
/// Any deviation yields `None` — "no data", never a panic.
pub(crate) fn parse_outcome_fields(p: &mut Parser<'_>) -> Option<SizingOutcome> {
    p.lit("\"iters\":")?;
    let iterations = p.number()?;
    p.lit(",\"paths\":")?;
    let constraint_paths = p.number()?;
    p.lit(",\"restarts\":")?;
    let gp_restarts = p.number()?;
    p.lit(",\"raw_paths\":\"")?;
    let raw_paths = p.hex_u128()?;
    p.lit("\",\"delay\":\"")?;
    let measured_delay = p.hex_f64()?;
    p.lit("\",\"precharge\":\"")?;
    let measured_precharge = p.hex_f64()?;
    p.lit("\",\"width\":\"")?;
    let total_width = p.hex_f64()?;
    p.lit("\",\"relax\":\"")?;
    let spec_relaxation = p.hex_f64()?;
    p.lit("\",\"binding\":\"")?;
    let binding_corner = p.take_while(|c| c != '"').to_owned();
    p.lit("\",\"corners\":[")?;
    let mut corner_delays = Vec::new();
    if !p.peek(']') {
        loop {
            p.lit("{\"name\":\"")?;
            let name = p.take_while(|c| c != '"').to_owned();
            p.lit("\",\"data\":\"")?;
            let data = p.hex_f64()?;
            p.lit("\",\"pre\":\"")?;
            let pre = p.hex_f64()?;
            p.lit("\"}")?;
            if !(data.is_finite() && pre.is_finite()) || name.is_empty() {
                return None;
            }
            corner_delays.push(CornerDelay {
                corner: name,
                data,
                precharge: pre,
            });
            if !p.comma() {
                break;
            }
        }
    }
    p.lit("],\"sizing\":[")?;
    let mut widths = Vec::new();
    if !p.peek(']') {
        loop {
            p.lit("\"")?;
            let w = p.hex_f64()?;
            p.lit("\"")?;
            // `Sizing::from_widths` treats non-positive/non-finite widths
            // as a caller bug (panic); a damaged file must instead read as
            // "no data".
            if !(w.is_finite() && w > 0.0) {
                return None;
            }
            widths.push(w);
            if !p.comma() {
                break;
            }
        }
    }
    p.lit("]")?;
    // Every live outcome carries at least one corner measurement and a
    // binding-corner name; a row without them is not ours.
    if widths.is_empty()
        || corner_delays.is_empty()
        || binding_corner.is_empty()
        || !(measured_delay.is_finite()
            && measured_precharge.is_finite()
            && total_width.is_finite()
            && spec_relaxation.is_finite())
    {
        return None;
    }
    Some(SizingOutcome {
        sizing: Sizing::from_widths(widths),
        measured_delay,
        measured_precharge,
        total_width,
        iterations,
        constraint_paths,
        raw_paths,
        spec_relaxation,
        gp_restarts,
        corner_delays,
        binding_corner,
    })
}

/// A cursor over canonical persisted text.
pub(crate) struct Parser<'a> {
    rest: &'a str,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Parser {
            rest: text.trim_end_matches('\n'),
        }
    }

    pub(crate) fn lit(&mut self, s: &str) -> Option<()> {
        self.rest = self.rest.strip_prefix(s)?;
        Some(())
    }

    pub(crate) fn peek(&self, c: char) -> bool {
        self.rest.starts_with(c)
    }

    pub(crate) fn comma(&mut self) -> bool {
        if let Some(r) = self.rest.strip_prefix(',') {
            self.rest = r;
            true
        } else {
            false
        }
    }

    pub(crate) fn take_while(&mut self, pred: impl Fn(char) -> bool) -> &'a str {
        let end = self
            .rest
            .char_indices()
            .find(|&(_, c)| !pred(c))
            .map_or(self.rest.len(), |(i, _)| i);
        let (tok, rest) = self.rest.split_at(end);
        self.rest = rest;
        tok
    }

    pub(crate) fn number(&mut self) -> Option<usize> {
        let tok = self.take_while(|c| c.is_ascii_digit());
        tok.parse().ok()
    }

    pub(crate) fn hex_u64(&mut self) -> Option<u64> {
        let tok = self.take_while(|c| c.is_ascii_hexdigit());
        (tok.len() == 16).then(|| u64::from_str_radix(tok, 16).ok())?
    }

    pub(crate) fn hex_u128(&mut self) -> Option<u128> {
        let tok = self.take_while(|c| c.is_ascii_hexdigit());
        (tok.len() == 32).then(|| u128::from_str_radix(tok, 16).ok())?
    }

    pub(crate) fn hex_f64(&mut self) -> Option<f64> {
        self.hex_u64().map(f64::from_bits)
    }
}
