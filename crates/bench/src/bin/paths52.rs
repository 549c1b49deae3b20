//! §5.2 experiment: exhaustive vs compacted path counts on the dynamic
//! CLA adder ("over 32,000 paths ... reduced the problem size to 120").

use smart_bench::paths52;
use smart_core::SizingOptions;
use smart_models::ModelLibrary;

fn main() {
    let lib = ModelLibrary::reference();
    let opts = SizingOptions::default();
    println!("# Section 5.2 — path compaction on the dynamic CLA adder");
    println!(
        "{:>6} {:>16} {:>10} {:>10}",
        "bits", "raw paths", "compacted", "ratio"
    );
    for width in [8, 16, 32, 64] {
        let s = paths52(&lib, &opts, width);
        println!(
            "{:>6} {:>16} {:>10} {:>10.1}",
            s.width, s.raw, s.compacted, s.ratio
        );
    }
}
