//! Golden values of [`Circuit::structural_hash`] over the representative
//! database. The hash is the `structure` field of every
//! [`smart_core::CacheKey`], so a cache snapshot written by an older
//! daemon only replays if these values never move: any change to how the
//! hash streams its input must reproduce them bit for bit.

use smart_macros::representative_database;

/// `(spec, structural_hash of spec.generate())`, in database order.
const GOLDEN: &[(&str, u64)] = &[
    ("Mux { topology: StronglyMutexedPass, width: 8 }", 0x862709aeb4edbf8d),
    ("Mux { topology: WeaklyMutexedPass, width: 8 }", 0x900e9a4009f186d6),
    ("Mux { topology: EncodedSelectPass, width: 2 }", 0xcb849d8cc46f6e75),
    ("Mux { topology: Tristate, width: 8 }", 0x57c6988231f065e7),
    ("Mux { topology: UnsplitDomino, width: 8 }", 0x0184e459c9574ade),
    ("Mux { topology: PartitionedDomino, width: 8 }", 0xd233609fe0c6753d),
    ("Mux { topology: StronglyMutexedPass, width: 4 }", 0x76811050cde77d3c),
    ("Incrementor { width: 8 }", 0xd2f66d8244058369),
    ("Incrementor { width: 32 }", 0xd65a6c4cef66dd75),
    ("IncrementorCla { width: 8 }", 0x51f51ac606b06788),
    ("IncrementorCla { width: 32 }", 0xf5b34add3eebd622),
    ("Decrementor { width: 8 }", 0xba14c53a8675a645),
    ("ZeroDetect { width: 16, style: Static }", 0xcc8d5dd9e8e717ae),
    ("ZeroDetect { width: 64, style: Static }", 0xabf7cb031601b082),
    ("ZeroDetect { width: 16, style: Domino }", 0x8695191f531c960f),
    ("ZeroDetect { width: 64, style: Domino }", 0xcfc40adf52a8d1d0),
    ("Decoder { in_bits: 3 }", 0x50b9f39984eb36f8),
    ("Decoder { in_bits: 5 }", 0x5de61b3284131423),
    ("PriorityEncoder { out_bits: 3 }", 0x50022405bd556440),
    ("OnehotEncoder { out_bits: 3 }", 0xe75f223ed83e4943),
    ("Comparator { width: 32, variant: ComparatorVariant { xorsum: 2, d2_fanin: 4 } }", 0x9a1aeb6ccc32181c),
    ("Comparator { width: 32, variant: ComparatorVariant { xorsum: 1, d2_fanin: 8 } }", 0xe7f20a64e0f174e3),
    ("Comparator { width: 32, variant: ComparatorVariant { xorsum: 4, d2_fanin: 4 } }", 0x496ab50cb6633cc9),
    ("Comparator { width: 64, variant: ComparatorVariant { xorsum: 2, d2_fanin: 4 } }", 0x144e9541d901a704),
    ("ClaAdder { width: 8 }", 0x5543ee20434a16f7),
    ("ClaAdder { width: 64 }", 0xad4ff2edf18617b9),
    ("RegFileRead { words: 16, bits: 8 }", 0x0c16225058d2c222),
    ("BarrelShifter { width: 8, kind: LogicalLeft }", 0xff6618971719a5bd),
    ("BarrelShifter { width: 8, kind: LogicalRight }", 0x1b8ecc86d8a89a66),
    ("BarrelShifter { width: 8, kind: RotateLeft }", 0x5649e62d900fa972),
    ("BarrelShifter { width: 32, kind: RotateLeft }", 0x5425b65c0bfb821d),
];

#[test]
fn representative_database_hashes_are_pinned() {
    let specs = representative_database();
    assert_eq!(specs.len(), GOLDEN.len(), "database size changed");
    for (spec, &(name, hash)) in specs.iter().zip(GOLDEN) {
        assert_eq!(format!("{spec:?}"), name, "database order changed");
        assert_eq!(spec.generate().structural_hash(), hash, "{name}");
    }
}

/// `cache_key(..).options` for the default options and for the
/// slow/typical/fast corner set. The options fingerprint is the `options`
/// field of every [`smart_core::CacheKey`], so like the structural hashes
/// above it must never move while snapshots are meant to replay.
#[test]
fn options_fingerprints_are_pinned() {
    use smart_core::{cache_key, DelaySpec, SizingOptions};
    use smart_models::{CornerSet, ModelLibrary};
    use smart_sta::Boundary;

    let circuit = representative_database()[0].generate();
    let lib = ModelLibrary::reference();
    let options = |opts: &SizingOptions| {
        cache_key(&circuit, &lib, &Boundary::default(), &DelaySpec::uniform(300.0), opts).options
    };
    let stf = SizingOptions {
        corners: Some(CornerSet::slow_typical_fast(lib.process())),
        ..SizingOptions::default()
    };
    assert_eq!(options(&SizingOptions::default()), 0x5c17c1967d9fb900, "default options");
    assert_eq!(options(&stf), 0x598fd6b99b733824, "slow/typical/fast corners");
}
