//! Asserts that building posynomials over a warm [`TermTable`] performs
//! **zero heap allocations per pushed or merged term**: the `R·C`
//! product (rows multiplied and looked up in the table), the slope and
//! stage sums of the stage model, and the merge of each stage into a path
//! all reuse buffers once the table has seen the rows and the sums have
//! seen the ids.
//!
//! This file holds exactly one `#[test]` and installs a counting global
//! allocator, so the counter window cannot race a sibling test thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use smart_models::arcs::Edge;
use smart_models::{label_vars, ModelLibrary};
use smart_netlist::{Circuit, Component, ComponentKind, DeviceRole, Skew};
use smart_posy::{TermId, TermSum, TermTable};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards every call to the system allocator unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A NAND3 driving a net loaded by three inverters, every device on its
/// own label: enough distinct rows (`W`, `1/W`, `Wⱼ/Wᵢ`, and the constant
/// a self-load cancels to) to exercise interning, products and merges.
fn nand_into_fanout() -> Circuit {
    let mut c = Circuit::new("fanout");
    let ins: Vec<_> = (0..3)
        .map(|i| c.add_net(format!("a{i}")).unwrap())
        .collect();
    let y = c.add_net("y").unwrap();
    let (p, n) = (c.label("P"), c.label("N"));
    let mut conns = ins.clone();
    conns.push(y);
    c.add(
        "nand",
        ComponentKind::Nand { inputs: 3 },
        &conns,
        &[(DeviceRole::PullUp, p), (DeviceRole::PullDown, n)],
    )
    .unwrap();
    for i in 0..3 {
        let z = c.add_net(format!("z{i}")).unwrap();
        let (pi, ni) = (c.label(&format!("P{i}")), c.label(&format!("N{i}")));
        c.add(
            format!("inv{i}"),
            ComponentKind::Inverter {
                skew: Skew::Balanced,
            },
            &[y, z],
            &[(DeviceRole::PullUp, pi), (DeviceRole::PullDown, ni)],
        )
        .unwrap();
        c.expose_output(format!("z{i}"), z);
    }
    for (i, &a) in ins.iter().enumerate() {
        c.expose_input(format!("a{i}"), a);
    }
    c
}

/// The sums one path build writes into.
#[derive(Default)]
struct Sums {
    rc: TermSum,
    slope: TermSum,
    stage: TermSum,
    path: TermSum,
}

impl Sums {
    /// One path of `stages` stages through `comp`, alternating the two
    /// drive tables: each stage is the stage model's sum over its `R·C`,
    /// merged into the path. Returns the path's term count.
    fn build_path(
        &mut self,
        table: &mut TermTable,
        lib: &ModelLibrary,
        comp: &Component,
        drives: &[Vec<(TermId, f64)>],
        cap: &TermSum,
        stages: usize,
    ) -> usize {
        self.path.clear();
        self.path.push(TermId::ONE, 25.0);
        self.slope.clear();
        self.slope.push(TermId::ONE, 40.0);
        for k in 0..stages {
            self.rc.clear();
            self.rc.add_product(table, &drives[k % 2], cap.terms());
            lib.stage_delay_from_rc(comp, self.rc.terms(), self.slope.terms(), &mut self.stage);
            self.path.add_scaled(self.stage.terms(), 1.0);
            lib.stage_slope_from_rc(self.rc.terms(), &mut self.slope);
        }
        self.path.terms().len()
    }

    fn pushes(&self) -> usize {
        [&self.rc, &self.slope, &self.stage, &self.path]
            .iter()
            .map(|s| s.pushes())
            .sum()
    }
}

#[test]
fn warm_pushes_and_merges_do_not_allocate() {
    let circuit = nand_into_fanout();
    let lib = ModelLibrary::reference();
    let (_, vars) = label_vars(&circuit);
    let nand = circuit.comp(circuit.find_comp("nand").unwrap());
    let mut table = TermTable::new();
    let mut cap = TermSum::new();
    lib.net_cap_terms(
        &mut table,
        &circuit,
        nand.output_net(),
        &vars,
        12.0,
        &mut cap,
    );
    // The drive tables come from the component model, which allocates its
    // table; the window below counts only the term work built on them.
    let mut drive = TermSum::new();
    let drives: Vec<Vec<(TermId, f64)>> = [Edge::Rise, Edge::Fall]
        .into_iter()
        .map(|edge| {
            lib.drive_terms(&mut table, nand, edge, &vars, &mut drive);
            drive.terms().to_vec()
        })
        .collect();

    // Warm up: the table interns every row, every sum grows its buffers.
    let mut sums = Sums::default();
    sums.build_path(&mut table, &lib, nand, &drives, &cap, 8);
    let rows = table.row_count();

    let pushes_before = sums.pushes();
    let path_before = sums.path.pushes();
    let before = ALLOCS.load(Ordering::SeqCst);
    let mut terms = 0;
    for _ in 0..100 {
        terms = sums.build_path(&mut table, &lib, nand, &drives, &cap, 8);
    }
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    let pushes = sums.pushes() - pushes_before;

    assert_eq!(
        table.row_count(),
        rows,
        "warm rows are looked up, not added"
    );
    assert!(
        pushes > 5_000,
        "the window must push real work ({pushes} pushes)"
    );
    assert!(
        sums.path.pushes() - path_before > 100 * terms,
        "stages must merge into the path"
    );
    assert_eq!(allocs, 0, "{allocs} allocations over {pushes} warm pushes");
}
