//! End-to-end trace replay: learned machines vs. their source simulators
//! under synthetic traffic, pinned hit counts on golden traces, and the
//! hierarchy replay invariant.
//!
//! Three layers of guarantee:
//!
//! 1. **Differential conformance under traffic** — for every deterministic
//!    policy at ways 2–4, the automaton learned by the polca pipeline
//!    replays every trace generator access-for-access identically to the
//!    executable simulator (zero hit/miss or victim-line divergences).
//! 2. **Golden traces** — exact per-policy hit counts on two small traces
//!    checked into `tests/fixtures/`: a hand-written pattern mix and a
//!    generated zipfian trace (which is also pinned byte-for-byte against
//!    regeneration, so generator drift cannot slip by).
//! 3. **Composite caches** — replaying through a two-level hierarchy
//!    preserves its defining invariant: an inclusive L2 never loses hits
//!    over L1 alone.

use cache::{CacheGeometry, CacheLevel, Hierarchy, HierarchyConfig, LevelConfig, LevelId};
use polca::{exact_learn_setup, learn_simulated_policy};
use policies::PolicyKind;
use trace::{
    differential_replay, generate, replay_hierarchy, replay_policy, GeneratorKind, Trace, TraceSpec,
};

/// The replay geometry: 16 sets of `assoc` ways.  A 48-line working set
/// overflows it at 2 ways, exactly fills it at 3 and fits at 4, so the
/// replays exercise thrash, steady state and pure reuse.
fn geometry(assoc: usize) -> CacheGeometry {
    CacheGeometry::new(assoc, 16, 1, 64)
}

fn spec(generator: GeneratorKind, accesses: usize, lines: usize, seed: u64) -> TraceSpec {
    TraceSpec {
        generator,
        accesses,
        lines,
        seed,
        ..TraceSpec::default()
    }
}

/// Learns `kind` at every supported associativity in 2–4 and replays all
/// four generators differentially: the learned machine must agree with the
/// ground-truth simulator on every single access.
fn assert_replay_conformance(kind: PolicyKind) {
    for assoc in 2..=4 {
        if !kind.supports_associativity(assoc) {
            continue;
        }
        let outcome = learn_simulated_policy(kind, assoc, &exact_learn_setup(assoc))
            .unwrap_or_else(|e| panic!("learning {kind}@{assoc} failed: {e}"));
        for generator in GeneratorKind::ALL {
            let trace = generate(&spec(generator, 20_000, 48, 7));
            let report = differential_replay(&trace, kind, geometry(assoc), &outcome.machine)
                .expect("the learned machine matches the replay geometry");
            assert!(
                report.passed(),
                "{kind}@{assoc} diverged on {generator}: {:?}",
                report.divergence
            );
            assert_eq!(
                report.simulator, report.machine,
                "{kind}@{assoc} on {generator}: divergence-free replays must agree on counters"
            );
            assert_eq!(report.simulator.accesses, 20_000);
        }
    }
}

#[test]
fn fifo_replays_without_divergence() {
    assert_replay_conformance(PolicyKind::Fifo);
}

#[test]
fn lru_replays_without_divergence() {
    assert_replay_conformance(PolicyKind::Lru);
}

#[test]
fn plru_replays_without_divergence() {
    assert_replay_conformance(PolicyKind::Plru);
}

#[test]
fn mru_replays_without_divergence() {
    assert_replay_conformance(PolicyKind::Mru);
}

#[test]
fn lip_replays_without_divergence() {
    assert_replay_conformance(PolicyKind::Lip);
}

#[test]
fn srrip_hp_replays_without_divergence() {
    assert_replay_conformance(PolicyKind::SrripHp);
}

#[test]
fn srrip_fp_replays_without_divergence() {
    assert_replay_conformance(PolicyKind::SrripFp);
}

#[test]
fn new1_replays_without_divergence() {
    assert_replay_conformance(PolicyKind::New1);
}

#[test]
fn new2_replays_without_divergence() {
    assert_replay_conformance(PolicyKind::New2);
}

fn load_fixture(name: &str) -> Trace {
    let text = std::fs::read_to_string(format!("tests/fixtures/{name}"))
        .unwrap_or_else(|e| panic!("fixture {name} is readable: {e}"));
    Trace::from_text(&text).unwrap_or_else(|e| panic!("fixture {name} parses: {e}"))
}

/// Hits per policy on the hand-written mix at 2 ways × 4 sets.  The trace
/// mixes a recency-vs-insertion discriminator, a recency-friendly set, a
/// scan with a retouch and a hot line (see the fixture's comments); the
/// counts were produced by the simulator and are pinned forever.
const HANDWRITTEN_HITS: [(PolicyKind, u64); 9] = [
    (PolicyKind::Fifo, 7),
    (PolicyKind::Lru, 8),
    (PolicyKind::Plru, 8),
    (PolicyKind::Mru, 8),
    (PolicyKind::Lip, 4),
    (PolicyKind::SrripHp, 8),
    (PolicyKind::SrripFp, 8),
    (PolicyKind::New1, 8),
    (PolicyKind::New2, 8),
];

/// Hits per policy on the small zipfian trace at 2 ways × 16 sets.
const ZIPF_HITS: [(PolicyKind, u64); 9] = [
    (PolicyKind::Fifo, 268),
    (PolicyKind::Lru, 268),
    (PolicyKind::Plru, 268),
    (PolicyKind::Mru, 268),
    (PolicyKind::Lip, 253),
    (PolicyKind::SrripHp, 268),
    (PolicyKind::SrripFp, 268),
    (PolicyKind::New1, 268),
    (PolicyKind::New2, 268),
];

#[test]
fn handwritten_golden_trace_hit_counts_are_pinned() {
    let trace = load_fixture("handwritten_mix.trace");
    assert_eq!(trace.len(), 19);
    let geometry = CacheGeometry::new(2, 4, 1, 64);
    for (kind, hits) in HANDWRITTEN_HITS {
        let counts = replay_policy(&trace, kind, geometry).unwrap();
        assert_eq!(counts.accesses, 19, "{kind}");
        assert_eq!(
            counts.hits, hits,
            "{kind} hit count moved on the golden trace"
        );
        assert_eq!(counts.hits + counts.misses, counts.accesses, "{kind}");
    }
}

#[test]
fn zipfian_golden_trace_hit_counts_are_pinned() {
    let trace = load_fixture("zipf_small.trace");
    // The checked-in fixture must be exactly what the generator produces
    // for its recorded spec — any drift in the zipfian sampler shows up
    // here before it silently re-pins the hit counts below.
    let regenerated = generate(&TraceSpec {
        generator: GeneratorKind::Zipfian,
        accesses: 300,
        lines: 32,
        seed: 5,
        ..TraceSpec::default()
    });
    assert_eq!(
        trace, regenerated,
        "zipf_small.trace no longer matches its spec"
    );
    let geometry = CacheGeometry::new(2, 16, 1, 64);
    for (kind, hits) in ZIPF_HITS {
        let counts = replay_policy(&trace, kind, geometry).unwrap();
        assert_eq!(counts.accesses, 300, "{kind}");
        assert_eq!(
            counts.hits, hits,
            "{kind} hit count moved on the golden trace"
        );
    }
}

/// Builds the small LRU L1 used by the hierarchy test: 2 ways × 16 sets
/// (32 lines — an eighth of the test's working set).
fn small_l1() -> CacheLevel {
    CacheLevel::new(
        LevelConfig {
            name: "L1".to_string(),
            geometry: CacheGeometry::new(2, 16, 1, 64),
            inclusive: false,
        },
        |_| PolicyKind::Lru.build(2).unwrap(),
    )
}

#[test]
fn an_inclusive_l2_never_loses_hits_over_l1_alone() {
    let trace = generate(&spec(GeneratorKind::Zipfian, 20_000, 256, 3));

    let mut solo = Hierarchy::new(HierarchyConfig {
        levels: vec![small_l1()],
    });
    let solo_report = replay_hierarchy(&trace, &mut solo);

    // 8 ways x 64 sets = 512 lines: the whole 256-line working set fits, so
    // the L2 never evicts and never back-invalidates the L1.
    let l2 = CacheLevel::new(
        LevelConfig {
            name: "L2".to_string(),
            geometry: CacheGeometry::new(8, 64, 1, 64),
            inclusive: true,
        },
        |_| PolicyKind::Lru.build(8).unwrap(),
    );
    let mut pair = Hierarchy::new(HierarchyConfig {
        levels: vec![small_l1(), l2],
    });
    let pair_report = replay_hierarchy(&trace, &mut pair);

    assert_eq!(solo_report.accesses, 20_000);
    assert_eq!(pair_report.accesses, 20_000);
    // The headline invariant: adding a level can only serve more accesses.
    assert!(pair_report.total_hits() >= solo_report.total_hits());
    // A fitting inclusive L2 never evicts, so the L1 sees the exact same
    // stream of fills as it did alone...
    let solo_l1 = solo_report.level(LevelId::L1).unwrap();
    let pair_l1 = pair_report.level(LevelId::L1).unwrap();
    assert_eq!(solo_l1.hits, pair_l1.hits);
    assert_eq!(pair_l1.hits + pair_l1.misses, pair_report.accesses);
    // ...and only the 256 cold fills ever reach memory.
    assert_eq!(pair_report.memory_accesses, 256);
    let pair_l2 = pair_report.level(LevelId::L2).unwrap();
    assert_eq!(pair_l2.hits, pair_l1.misses - 256);
}
