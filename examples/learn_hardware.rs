//! The §7 case study for a single cache set: learn the replacement policy of
//! one set of a simulated Intel CPU through the full CacheQuery pipeline.
//!
//! Run with:
//!   cargo run --release --example learn_hardware -- [CPU] [LEVEL] [SET] [CAT_WAYS]
//! e.g.
//!   cargo run --release --example learn_hardware -- skylake L3 33 2
//!
//! Learning the Skylake L2 (160-state New1) or an L1 (128-state PLRU) takes
//! several minutes; the L3 leader set with CAT reduced to 2-4 ways finishes
//! much faster and already demonstrates the undocumented New2 policy.

use cache::LevelId;
use cachequery::{ResetSequence, Target};
use hardware::CpuModel;
use polca::{identify_policy, learn_hardware_policy, HardwareTarget, LearnSetup};
use policies::PolicyKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cpu: CpuModel = args
        .first()
        .map_or("skylake", String::as_str)
        .parse()
        .unwrap_or_else(|e| {
            eprintln!("learn_hardware: {e}");
            std::process::exit(2)
        });
    let level = args
        .get(1)
        .and_then(|l| LevelId::parse(l))
        .unwrap_or(LevelId::L3);
    let set: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(33);
    let cat_ways: Option<usize> = args.get(3).and_then(|w| w.parse().ok());

    // Table 4: the Skylake/Kaby Lake L2 needs the custom reset sequence.
    let reset = if level == LevelId::L2 && cpu != CpuModel::HaswellI7_4790 {
        ResetSequence::Custom("D C B A @".to_string())
    } else {
        ResetSequence::FlushRefill
    };
    let cat_ways = if level == LevelId::L3 {
        Some(cat_ways.unwrap_or(2))
    } else {
        None
    };

    println!(
        "Learning {} {level} set {set} (reset '{reset}', CAT {cat_ways:?})",
        cpu.spec().name
    );
    let hardware = HardwareTarget {
        model: cpu,
        target: Target::new(level, set, 0),
        reset,
        cat_ways,
        seed: 2024,
    };
    match learn_hardware_policy(&hardware, &LearnSetup::default()) {
        Ok(outcome) => {
            let assoc =
                cat_ways.unwrap_or_else(|| cpu.spec().level(level).unwrap().geometry.associativity);
            println!("  states              : {}", outcome.machine.num_states());
            println!(
                "  membership queries  : {}",
                outcome.stats.membership_queries
            );
            println!("  cache probes        : {}", outcome.cache_probes);
            println!("  wall-clock time     : {:?}", outcome.stats.duration);
            let identified =
                identify_policy(&outcome.machine, assoc, &PolicyKind::ALL_DETERMINISTIC);
            println!(
                "  identified policy   : {}",
                identified
                    .map(|(k, _)| k.name())
                    .unwrap_or("unknown (possibly a new policy)")
            );
        }
        Err(e) => {
            println!("  learning failed: {e}");
            println!("  (expected for follower sets, adaptive policies, or wrong reset sequences)");
        }
    }
}
