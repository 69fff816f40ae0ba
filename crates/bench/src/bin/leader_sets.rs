//! Appendix B: detecting leader sets of the adaptive last-level cache with
//! thrashing queries.
//!
//! The harness samples cache sets of the simulated Skylake (or Kaby Lake /
//! Haswell) L3, runs the two-phase thrashing experiment of Appendix B, and
//! compares the sets it classifies as fixed thrash-vulnerable leaders against
//! the selection formula the simulation implements (which is the formula the
//! paper reports: `((set & 0x3e0) >> 5) ^ (set & 0x1f) == 0 && set & 0x2 == 0`).
//!
//! Usage:
//!   leader_sets [--cpu skylake|kabylake|haswell] [--sets N] [--cat WAYS] [--seed N]

use bench::{Args, TextTable};
use cache::{skylake_like_roles, DuelingRole, LevelId};
use cachequery::{detect_leader_sets, CacheQuery, LeaderClass};
use hardware::{CpuModel, SimulatedCpu};

fn main() {
    let args = Args::from_env();
    let model: CpuModel = args
        .value_of("cpu")
        .unwrap_or("skylake")
        .parse()
        .unwrap_or_else(|e| {
            eprintln!("leader_sets: {e}");
            std::process::exit(2)
        });
    let sample = args.value_or("sets", 48usize);
    let cat = args.value_or("cat", 4usize);
    let seed = args.value_or("seed", 99u64);

    println!("Appendix B: leader-set detection on the simulated {model} L3");
    println!("(thrashing working set = associativity + 1, CAT {cat} ways, {sample} sampled sets)");
    println!();

    let cpu = SimulatedCpu::new(model, seed);
    let mut tool = CacheQuery::new(cpu);
    if model.spec().supports_cat {
        tool.apply_cat(cat).expect("CAT is supported on this model");
    } else {
        println!("note: {model} does not support CAT; thrashing runs at full associativity");
    }

    // Sample the first `sample` set indices of slice 0, which contains the
    // first few leader sets of the published selection formula (0, 33, ...).
    let candidates: Vec<(usize, usize)> = (0..sample).map(|set| (set, 0)).collect();
    let report =
        detect_leader_sets(&mut tool, LevelId::L3, &candidates, 2).expect("detection runs");

    let sets_per_slice = model
        .spec()
        .level(LevelId::L3)
        .unwrap()
        .geometry
        .sets_per_slice;
    let slices = model.spec().level(LevelId::L3).unwrap().geometry.slices;
    let expected_roles = skylake_like_roles(sets_per_slice, slices);

    let mut table = TextTable::new(&[
        "Set",
        "Miss rate (phase 1)",
        "Miss rate (phase 2)",
        "Classified as",
        "Simulator ground truth",
    ]);
    let mut correct_leaders = 0usize;
    let mut reported_leaders = 0usize;
    for info in &report.sets {
        let truth = match expected_roles[info.slice * sets_per_slice + info.set] {
            DuelingRole::LeaderPrimary => "leader (thrash-vulnerable)",
            DuelingRole::LeaderAlternate => "leader (thrash-resistant)",
            DuelingRole::Follower => "follower",
        };
        let classified = match info.class {
            LeaderClass::ThrashVulnerable => {
                reported_leaders += 1;
                if truth.starts_with("leader (thrash-vulnerable") {
                    correct_leaders += 1;
                }
                "thrash-vulnerable"
            }
            LeaderClass::ThrashResistant => "thrash-resistant",
            LeaderClass::Adaptive => "adaptive follower",
        };
        table.add_row(&[
            info.set.to_string(),
            format!("{:.2}", info.miss_rate_initial),
            format!("{:.2}", info.miss_rate_after_duel),
            classified.to_string(),
            truth.to_string(),
        ]);
    }
    println!("{}", table.render());

    println!(
        "thrash-vulnerable leaders reported: {reported_leaders}, of which {correct_leaders} match the \
         selection formula"
    );
    let formula_leaders: Vec<usize> = (0..sample)
        .filter(|&set| expected_roles[set] == DuelingRole::LeaderPrimary)
        .collect();
    println!(
        "selection formula predicts leaders at sets {formula_leaders:?} within the sampled range"
    );
    println!();
    println!("Paper reference (Appendix B / Table 4): leader sets 0, 33, 132, 165, 264, 297, 396,");
    println!("429, 528, 561, 660, 693, 792, 825, 924, 957 per slice on Skylake and Kaby Lake;");
    println!("the remaining sets adapt via set dueling.");
}
