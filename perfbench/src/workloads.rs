//! The four workloads: what each one sets up, runs and checks.
//!
//! Every learner runs with one worker, so the membership-query and
//! cache-access counts of a workload repeat exactly.  The learning workloads
//! have fixed inputs; only `learn_hw` takes the benchmark seed (as the seed of
//! the simulated machine).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use automata::{check_equivalence, minimize};
use cache::{DuelingRole, LevelId};
use cachequery::{CacheQuery, QueryEngine, QueryStore, ResetSequence, Target};
use hardware::{CpuModel, SimulatedCpu};
use learning::LearnPhase;
use obs::Recorder;
use polca::{
    learn_hardware_policy, learn_policy, learn_simulated_policy, CacheOracle, CacheQueryOracle,
    HardwareTarget, LearnOutcome, LearnSetup, PolicySimBackend, SimulatedCacheOracle,
};
use policies::{policy_to_mealy, PolicyKind, PolicyMealy};
use server::{spawn, Client, CqdConfig, CqdHandle, RemoteBackend, SessionSpec};

use crate::layers::{BackendLedger, CallTimer, SpanTotals, TimedBackend, TimedOracle};

/// Per-layer values of one traced iteration, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one measured iteration produced.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Operations attempted: one per learning campaign.
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Membership queries over all units.
    pub membership_queries: u64,
    /// Block accesses Polca issued to the cache under test.
    pub cache_accesses: u64,
    /// Per-layer values (traced iterations only).
    pub layers: Layers,
}

/// A learned unit: the outcome, the campaign's wall time in seconds, and
/// the oracle timer (empty when untraced).
type Learned = (LearnOutcome, f64, Arc<CallTimer>);

impl Iteration {
    /// Books one learning campaign: its counts, its layer totals, and a
    /// failure if it erred or `check` finds one.
    fn book(
        &mut self,
        label: &str,
        learned: Result<Learned, String>,
        totals: &mut LearnTotals,
        check: impl FnOnce(&LearnOutcome) -> Option<String>,
    ) {
        self.attempted += 1;
        match learned {
            Ok((outcome, campaign_s, timer)) => {
                self.membership_queries += outcome.stats.membership_queries;
                self.cache_accesses += outcome.block_accesses;
                totals.add(&outcome, campaign_s, &timer);
                if let Some(failure) = check(&outcome) {
                    self.failures.push(format!("{label}: {failure}"));
                }
            }
            Err(e) => self.failures.push(format!("{label}: {e}")),
        }
    }
}

/// One workload of the benchmark.
pub trait Workload {
    /// Everything an iteration needs that is not part of its measured phase.
    type Fixture;

    /// Builds a fresh fixture; `index` numbers the set-ups of one process.
    fn setup(&self, index: usize) -> Result<Self::Fixture, String>;

    /// Runs the measured phase on `fixture` and checks its results.
    fn run(&self, fixture: &mut Self::Fixture, traced: bool) -> Result<Iteration, String>;
}

/// A learning unit and the state and membership-query counts it must be
/// learned with (for the simulated policies, the counts `perfgate` and
/// Table 2 pin).
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    kind: PolicyKind,
    assoc: usize,
    states: usize,
    queries: u64,
}

const fn unit(kind: PolicyKind, assoc: usize, states: usize, queries: u64) -> Unit {
    Unit {
        kind,
        assoc,
        states,
        queries,
    }
}

/// `learn_sim`: the paper's two undocumented policies and the largest
/// Table 2 machine.
pub const SIM_UNITS: [Unit; 3] = [
    unit(PolicyKind::New1, 4, 160, 353_310),
    unit(PolicyKind::New2, 4, 175, 784_143),
    unit(PolicyKind::SrripFp, 4, 256, 3_553_110),
];

/// `learn_engine`: New1/4 through the replaying engine path.
pub const ENGINE_UNITS: [Unit; 1] = [unit(PolicyKind::New1, 4, 160, 353_310)];

/// `learn_remote`: small Table 2 units over the wire.
pub const REMOTE_UNITS: [Unit; 6] = [
    unit(PolicyKind::Lru, 4, 24, 7_569),
    unit(PolicyKind::Lip, 4, 24, 7_580),
    unit(PolicyKind::Mru, 4, 14, 3_034),
    unit(PolicyKind::Plru, 4, 8, 747),
    unit(PolicyKind::SrripHp, 2, 12, 986),
    unit(PolicyKind::SrripFp, 2, 16, 2_966),
];

/// The learner configuration of every learning workload: one worker keeps
/// the query order, and so every count, fixed.
fn learn_setup() -> LearnSetup {
    LearnSetup {
        workers: 1,
        ..LearnSetup::default()
    }
}

/// The minimized reference automaton of a policy.
fn reference(kind: PolicyKind, assoc: usize) -> Result<PolicyMealy, String> {
    let policy = kind.build(assoc).map_err(|e| e.to_string())?;
    Ok(minimize(&policy_to_mealy(policy.as_ref(), 1 << 20)))
}

/// The reference automata of `units`, in order.
fn references(units: &[Unit]) -> Result<Vec<PolicyMealy>, String> {
    units.iter().map(|u| reference(u.kind, u.assoc)).collect()
}

/// Checks one learned unit: equivalent to its reference, with the pinned
/// state and query counts.  Returns the failure, if any.
fn check_unit(unit: &Unit, reference: &PolicyMealy, outcome: &LearnOutcome) -> Option<String> {
    if let Some(cex) = check_equivalence(&outcome.machine, reference) {
        return Some(format!("not equivalent to {} ({cex:?})", unit.kind));
    }
    let states = outcome.machine.num_states();
    let queries = outcome.stats.membership_queries;
    (states != unit.states || queries != unit.queries).then(|| {
        format!(
            "{states} states / {queries} queries, expected {} / {}",
            unit.states, unit.queries
        )
    })
}

/// Per-phase metric names, in [`LearnPhase::ALL`] order.
const PHASE_S: [&str; 4] = [
    "learning.table_fill_s",
    "learning.closure_s",
    "learning.equivalence_s",
    "learning.identification_s",
];
const PHASE_QUERIES: [&str; 4] = [
    "learning.table_fill_queries",
    "learning.closure_queries",
    "learning.equivalence_queries",
    "learning.identification_queries",
];

/// Sums of the learning- and Polca-layer figures over the units of one
/// iteration.
#[derive(Debug, Default)]
struct LearnTotals {
    phase_s: [f64; 4],
    phase_queries: [u64; 4],
    membership_queries: u64,
    trie_hits: u64,
    conformance_tests: u64,
    counterexamples: u64,
    campaign_s: f64,
    oracle_calls: u64,
    oracle_s: f64,
    probes: u64,
    accesses: u64,
}

impl LearnTotals {
    fn add(&mut self, outcome: &LearnOutcome, campaign_s: f64, oracle: &CallTimer) {
        for (i, phase) in LearnPhase::ALL.iter().enumerate() {
            let stats = outcome.stats.phases.get(*phase);
            self.phase_s[i] += stats.duration.as_secs_f64();
            self.phase_queries[i] += stats.queries;
        }
        self.membership_queries += outcome.stats.membership_queries;
        self.trie_hits += outcome.stats.cache_hits;
        self.conformance_tests += outcome.stats.conformance_tests;
        self.counterexamples += outcome.stats.counterexamples;
        self.campaign_s += campaign_s;
        self.oracle_calls += oracle.calls();
        self.oracle_s += oracle.seconds();
        self.probes += outcome.cache_probes;
        self.accesses += outcome.block_accesses;
    }

    fn write(&self, layers: &mut Layers) {
        for i in 0..4 {
            layers.insert(PHASE_S[i], self.phase_s[i]);
            layers.insert(PHASE_QUERIES[i], self.phase_queries[i] as f64);
        }
        layers.insert(
            "learning.trie_hit_rate",
            ratio(self.trie_hits, self.membership_queries),
        );
        layers.insert("learning.conformance_tests", self.conformance_tests as f64);
        layers.insert("learning.counterexamples", self.counterexamples as f64);
        layers.insert("learning.campaign_s", self.campaign_s);
        layers.insert("learning.self_s", self.campaign_s - self.oracle_s);
        layers.insert("polca.oracle_calls", self.oracle_calls as f64);
        layers.insert("polca.oracle_s", self.oracle_s);
        layers.insert("polca.cache_probes", self.probes as f64);
        layers.insert(
            "polca.accesses_per_probe",
            ratio(self.accesses, self.probes),
        );
    }
}

/// `numerator / denominator`, or 0 for an empty denominator.
fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Store figures of one iteration, summed over its stores.
fn write_stores(layers: &mut Layers, stores: &[Arc<QueryStore>]) {
    let (mut hits, mut misses, mut entries, mut bytes) = (0, 0, 0, 0);
    for store in stores {
        hits += store.hits();
        misses += store.misses();
        entries += store.entries();
        bytes += store.approx_bytes();
    }
    layers.insert("store.hits", hits as f64);
    layers.insert("store.misses", misses as f64);
    layers.insert("store.hit_rate", ratio(hits, hits + misses));
    layers.insert("store.entries", entries as f64);
    layers.insert("store.approx_mb", bytes as f64 / 1e6);
}

/// Learns every unit with `learn` and checks each result.
fn learn_units(
    units: &[Unit],
    references: &[PolicyMealy],
    totals: &mut LearnTotals,
    mut learn: impl FnMut(&Unit) -> Result<Learned, String>,
) -> Iteration {
    let mut iteration = Iteration::default();
    for (unit, reference) in units.iter().zip(references) {
        let label = format!("{}/{}", unit.kind, unit.assoc);
        iteration.book(&label, learn(unit), totals, |outcome| {
            check_unit(unit, reference, outcome)
        });
    }
    iteration
}

/// Runs `learn_policy` on `oracle`, timed; traced runs wrap the oracle in a
/// [`TimedOracle`] first.
fn timed_learn<C>(oracle: C, traced: bool) -> Result<Learned, String>
where
    C: CacheOracle + Clone + Send + 'static,
{
    let setup = learn_setup();
    let started = Instant::now();
    if traced {
        let oracle = TimedOracle::new(oracle);
        let timer = oracle.timer();
        let outcome = learn_policy(oracle, &setup).map_err(|e| e.to_string())?;
        Ok((outcome, started.elapsed().as_secs_f64(), timer))
    } else {
        let outcome = learn_policy(oracle, &setup).map_err(|e| e.to_string())?;
        Ok((outcome, started.elapsed().as_secs_f64(), Arc::default()))
    }
}

/// `learn_sim`: `polca::learn_simulated_policy`, the direct path.
pub struct LearnSim {
    /// The units learned per iteration ([`SIM_UNITS`]).
    pub units: &'static [Unit],
}

impl Workload for LearnSim {
    type Fixture = Vec<PolicyMealy>;

    fn setup(&self, _index: usize) -> Result<Self::Fixture, String> {
        references(self.units)
    }

    fn run(&self, references: &mut Self::Fixture, traced: bool) -> Result<Iteration, String> {
        let mut totals = LearnTotals::default();
        let mut iteration = learn_units(self.units, references, &mut totals, |u| {
            if traced {
                // The same path `learn_simulated_policy` takes, with the
                // oracle wrapped.
                let oracle =
                    SimulatedCacheOracle::new(u.kind, u.assoc).map_err(|e| e.to_string())?;
                timed_learn(oracle, true)
            } else {
                let started = Instant::now();
                let outcome = learn_simulated_policy(u.kind, u.assoc, &learn_setup())
                    .map_err(|e| e.to_string())?;
                Ok((outcome, started.elapsed().as_secs_f64(), Arc::default()))
            }
        });
        if traced {
            totals.write(&mut iteration.layers);
        }
        Ok(iteration)
    }
}

/// `learn_engine`: New1/4 through `CacheQueryOracle` + `QueryEngine` with an
/// in-memory store over the batched policy simulator.
pub struct LearnEngine {
    /// The units learned per iteration ([`ENGINE_UNITS`]).
    pub units: &'static [Unit],
}

impl Workload for LearnEngine {
    type Fixture = Vec<PolicyMealy>;

    fn setup(&self, _index: usize) -> Result<Self::Fixture, String> {
        references(self.units)
    }

    fn run(&self, references: &mut Self::Fixture, traced: bool) -> Result<Iteration, String> {
        let mut totals = LearnTotals::default();
        let store = Arc::new(QueryStore::new());
        let mut backend_ledgers = Vec::new();
        let mut iteration = learn_units(self.units, references, &mut totals, |u| {
            let backend = PolicySimBackend::new(u.kind, u.assoc).map_err(|e| e.to_string())?;
            if traced {
                // No span recorder here: one `engine.run_batch` span per
                // probe would more than double the campaign's time.
                let backend = TimedBackend::new(backend);
                backend_ledgers.push(backend.ledger());
                let engine = QueryEngine::with_store(backend, Arc::clone(&store));
                let oracle = CacheQueryOracle::from_engine(engine).map_err(|e| e.to_string())?;
                timed_learn(oracle, true)
            } else {
                let engine = QueryEngine::with_store(backend, Arc::clone(&store));
                let oracle = CacheQueryOracle::from_engine(engine).map_err(|e| e.to_string())?;
                timed_learn(oracle, false)
            }
        });
        if traced {
            let layers = &mut iteration.layers;
            totals.write(layers);
            write_stores(layers, &[store]);
            write_backend(layers, &backend_ledgers, totals.oracle_s);
        }
        Ok(iteration)
    }
}

/// `learn_remote`: `learn_policy` over a `RemoteBackend` session against an
/// in-process `cqd` with one worker and a durable store.
pub struct LearnRemote {
    /// The units learned per iteration ([`REMOTE_UNITS`]).
    pub units: &'static [Unit],
    /// Directory under which each daemon gets a fresh store directory.
    pub work_dir: PathBuf,
}

/// A running daemon and its store directory, removed when dropped.
pub struct RemoteFixture {
    references: Vec<PolicyMealy>,
    daemon: Option<CqdHandle>,
    store_dir: PathBuf,
}

impl Drop for RemoteFixture {
    fn drop(&mut self) {
        drop(self.daemon.take());
        let _ = std::fs::remove_dir_all(&self.store_dir);
    }
}

impl Workload for LearnRemote {
    type Fixture = RemoteFixture;

    fn setup(&self, index: usize) -> Result<Self::Fixture, String> {
        let store_dir = self.work_dir.join(format!("cqd-store-{index}"));
        let _ = std::fs::remove_dir_all(&store_dir);
        let daemon = spawn(CqdConfig {
            workers: 1,
            store_dir: Some(store_dir.clone()),
            ..CqdConfig::default()
        })
        .map_err(|e| format!("starting cqd: {e}"))?;
        Ok(RemoteFixture {
            references: references(self.units)?,
            daemon: Some(daemon),
            store_dir,
        })
    }

    fn run(&self, fixture: &mut Self::Fixture, traced: bool) -> Result<Iteration, String> {
        let daemon = fixture.daemon.take().ok_or("the daemon was already used")?;
        let addr = daemon.addr();
        let mut totals = LearnTotals::default();
        let mut ledgers = Vec::new();
        let mut client_stores = Vec::new();
        let mut iteration = learn_units(self.units, &fixture.references, &mut totals, |u| {
            let spec = SessionSpec {
                policy: Some(format!("{}@{}", u.kind, u.assoc)),
                ..SessionSpec::default()
            };
            let backend = RemoteBackend::connect(addr, &spec).map_err(|e| e.to_string())?;
            if traced {
                let backend = TimedBackend::new(backend);
                ledgers.push(backend.ledger());
                let engine = QueryEngine::new(backend);
                client_stores.push(Arc::clone(engine.store()));
                let oracle = CacheQueryOracle::from_engine(engine).map_err(|e| e.to_string())?;
                timed_learn(oracle, true)
            } else {
                let engine = QueryEngine::new(backend);
                let oracle = CacheQueryOracle::from_engine(engine).map_err(|e| e.to_string())?;
                timed_learn(oracle, false)
            }
        });
        let server_stats = if traced {
            Some(server_figures(addr)?)
        } else {
            None
        };
        let started = Instant::now();
        daemon.shutdown();
        let shutdown_s = started.elapsed().as_secs_f64();
        if let Some(mut server) = server_stats {
            let layers = &mut iteration.layers;
            totals.write(layers);
            layers.append(&mut server);
            layers.insert("persist.shutdown_s", shutdown_s);
            write_stores(layers, &client_stores);
            write_backend(layers, &ledgers, totals.oracle_s);
            let mut rtts: Vec<u64> = ledgers.iter().flat_map(|l| l.latencies_ns()).collect();
            rtts.sort_unstable();
            layers.insert("server.round_trips", rtts.len() as f64);
            layers.insert("server.rtt_p50_us", quantile(&rtts, 0.5) * 1e-3);
            layers.insert("server.rtt_p99_us", quantile(&rtts, 0.99) * 1e-3);
        }
        Ok(iteration)
    }
}

/// The `q`-quantile of `sorted` (0 when empty).
fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize] as f64
}

/// The daemon's own figures, read over a fresh session: request latency
/// from its metrics registry, query and persistence counters from `stats`.
fn server_figures(addr: std::net::SocketAddr) -> Result<Layers, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let stats = client.stats().map_err(|e| e.to_string())?;
    let (_, metrics) = client.metrics().map_err(|e| e.to_string())?;
    client.quit().map_err(|e| e.to_string())?;
    let request = metrics
        .iter()
        .find(|m| m.name == "cqd_request_ns")
        .ok_or("cqd reports no cqd_request_ns histogram")?;
    let global = stats.global;
    Ok(Layers::from([
        ("server.request_p50_us", request.p50 as f64 * 1e-3),
        ("server.request_p99_us", request.p99 as f64 * 1e-3),
        ("server.queries", global.queries as f64),
        ("server.store_hits", global.store_hits as f64),
        ("server.backend_queries", global.backend_queries as f64),
        ("persist.appended", global.persist_appended as f64),
        ("persist.dropped", global.persist_dropped as f64),
        ("persist.snapshots", global.persist_snapshots as f64),
    ]))
}

/// `learn_hw`: the §7 pipeline (`polca::learn_hardware_policy`) on the
/// primary leader sets of the simulated Skylake L3, restricted by CAT.
pub struct LearnHw {
    /// Seed of the simulated machine (the benchmark's `--seed`).
    pub seed: u64,
    /// Primary leader sets of slice 0 learned per iteration ([`HW_SETS`]).
    pub sets: usize,
}

const HW_MODEL: CpuModel = CpuModel::SkylakeI5_6500;
/// Ways CAT leaves to the L3: New2 at 2 ways is a 7-state machine.
const HW_CAT_WAYS: usize = 2;
/// Primary leader sets of slice 0 learned per `learn_hw` iteration.
pub const HW_SETS: usize = 2;
/// What every leader set must learn: New2 at [`HW_CAT_WAYS`] ways.  L*'s
/// query count depends only on the answers, so it is the same on every set
/// and machine seed.
const HW_UNIT: Unit = unit(PolicyKind::New2, HW_CAT_WAYS, 7, 641);

/// The targets of one `learn_hw` iteration and their reference automaton.
pub struct HwFixture {
    targets: Vec<HardwareTarget>,
    reference: PolicyMealy,
}

impl Workload for LearnHw {
    type Fixture = HwFixture;

    fn setup(&self, _index: usize) -> Result<Self::Fixture, String> {
        let cpu = SimulatedCpu::new(HW_MODEL, self.seed);
        let dueling = cpu.l3_dueling().ok_or("the model's L3 does not duel")?;
        let sets_per_slice = cpu.geometry(LevelId::L3).sets_per_slice;
        let targets: Vec<HardwareTarget> = dueling
            .leaders(DuelingRole::LeaderPrimary)
            .into_iter()
            .filter(|&flat| flat < sets_per_slice)
            .take(self.sets)
            .map(|set| HardwareTarget {
                model: HW_MODEL,
                target: Target::new(LevelId::L3, set, 0),
                reset: ResetSequence::FlushRefill,
                cat_ways: Some(HW_CAT_WAYS),
                seed: self.seed,
            })
            .collect();
        if targets.len() != self.sets {
            return Err(format!("{} primary leader sets in slice 0", targets.len()));
        }
        Ok(HwFixture {
            targets,
            reference: reference(HW_UNIT.kind, HW_UNIT.assoc)?,
        })
    }

    fn run(&self, fixture: &mut Self::Fixture, traced: bool) -> Result<Iteration, String> {
        let mut iteration = Iteration::default();
        let mut totals = LearnTotals::default();
        let spans = Arc::new(SpanTotals::default());
        let mut ledgers = Vec::new();
        let mut stores = Vec::new();
        for target in &fixture.targets {
            let learned = if traced {
                traced_hardware_learn(target, &spans).map(|(learned, ledger, store)| {
                    ledgers.push(ledger);
                    stores.push(store);
                    learned
                })
            } else {
                let started = Instant::now();
                learn_hardware_policy(target, &learn_setup())
                    .map(|outcome| (outcome, started.elapsed().as_secs_f64(), Arc::default()))
                    .map_err(|e| e.to_string())
            };
            let label = format!("L3 set {}", target.target.set);
            iteration.book(&label, learned, &mut totals, |outcome| {
                check_unit(&HW_UNIT, &fixture.reference, outcome)
            });
        }
        if traced {
            let layers = &mut iteration.layers;
            totals.write(layers);
            write_backend(layers, &ledgers, totals.oracle_s);
            write_stores(layers, &stores);
            layers.insert("engine.run_batch_s", spans.seconds("engine.run_batch"));
        }
        Ok(iteration)
    }
}

/// `learn_hardware_policy` with its backend and oracle wrapped: the same
/// steps (CPU, reset sequence, CAT, target, five repetitions), with the
/// engine's batch spans recorded into `spans`.
fn traced_hardware_learn(
    target: &HardwareTarget,
    spans: &Arc<SpanTotals>,
) -> Result<(Learned, Arc<BackendLedger>, Arc<QueryStore>), String> {
    let mut tool = CacheQuery::new(SimulatedCpu::new(target.model, target.seed));
    tool.set_reset_sequence(target.reset.clone());
    if let Some(ways) = target.cat_ways {
        tool.apply_cat(ways).map_err(|e| e.to_string())?;
    }
    tool.set_target(target.target).map_err(|e| e.to_string())?;
    tool.set_repetitions(5);
    let backend = TimedBackend::new(tool.into_engine().into_backend());
    let ledger = backend.ledger();
    let mut engine = QueryEngine::new(backend);
    let store = Arc::clone(engine.store());
    let recorder = Arc::new(Recorder::new(spans.clone()));
    engine.set_recorder(Some(recorder));
    let oracle = CacheQueryOracle::from_engine(engine).map_err(|e| e.to_string())?;
    Ok((timed_learn(oracle, true)?, ledger, store))
}

/// Backend figures summed over `ledgers`, and the engine's self time: the
/// oracle time the backend does not account for.
fn write_backend(layers: &mut Layers, ledgers: &[Arc<BackendLedger>], oracle_s: f64) {
    let (mut calls, mut queries, mut seconds) = (0u64, 0u64, 0.0);
    for ledger in ledgers {
        calls += ledger.timer().calls();
        queries += ledger.queries();
        seconds += ledger.timer().seconds();
    }
    layers.insert("backend.s", seconds);
    layers.insert("backend.calls", calls as f64);
    layers.insert("backend.queries", queries as f64);
    layers.insert("backend.queries_per_call", ratio(queries, calls));
    layers.insert("engine.self_s", oracle_s - seconds);
}

#[cfg(test)]
mod tests {
    //! Conservation laws of the benchmark's own wrappers, on LRU/2 (two
    //! states, 43 membership queries).

    use super::*;

    const LRU_2: [Unit; 1] = [unit(PolicyKind::Lru, 2, 2, 43)];

    /// Runs one untraced and one traced iteration and checks both, and that
    /// tracing changed no count.
    fn traced_iteration<W: Workload>(workload: &W) -> Iteration {
        let mut fixture = workload.setup(0).expect("set-up succeeds");
        let plain = workload.run(&mut fixture, false).expect("untraced run");
        let mut fixture = workload.setup(1).expect("set-up succeeds");
        let traced = workload.run(&mut fixture, true).expect("traced run");
        assert!(plain.failures.is_empty(), "{:?}", plain.failures);
        assert!(traced.failures.is_empty(), "{:?}", traced.failures);
        assert_eq!(
            (plain.membership_queries, plain.cache_accesses),
            (traced.membership_queries, traced.cache_accesses),
            "tracing must not change what is asked"
        );
        assert!(plain.layers.is_empty());
        traced
    }

    fn layer(iteration: &Iteration, name: &str) -> f64 {
        *iteration
            .layers
            .get(name)
            .unwrap_or_else(|| panic!("{name} is reported"))
    }

    /// The learning-layer laws every learning workload obeys.
    fn check_learning_laws(iteration: &Iteration) {
        let phase_queries: f64 = PHASE_QUERIES.iter().map(|n| layer(iteration, n)).sum();
        assert_eq!(phase_queries, iteration.membership_queries as f64);
        assert_eq!(
            layer(iteration, "polca.oracle_calls"),
            layer(iteration, "polca.cache_probes"),
            "every probe and session step passes the oracle wrapper once"
        );
        let parts = layer(iteration, "learning.self_s") + layer(iteration, "polca.oracle_s");
        assert!((parts - layer(iteration, "learning.campaign_s")).abs() < 1e-9);
        assert!(layer(iteration, "learning.self_s") > 0.0);
    }

    #[test]
    fn direct_path_conserves_queries_and_probes() {
        let iteration = traced_iteration(&LearnSim { units: &LRU_2 });
        check_learning_laws(&iteration);
        assert_eq!(iteration.membership_queries, 43);
    }

    #[test]
    fn engine_path_sends_exactly_the_store_misses_to_the_backend() {
        let iteration = traced_iteration(&LearnEngine { units: &LRU_2 });
        check_learning_laws(&iteration);
        assert_eq!(
            layer(&iteration, "backend.queries"),
            layer(&iteration, "store.misses")
        );
        assert!(layer(&iteration, "store.hits") > 0.0);
        // The engine's time is the oracle time the backend does not cover.
        let parts = layer(&iteration, "engine.self_s") + layer(&iteration, "backend.s");
        assert!((parts - layer(&iteration, "polca.oracle_s")).abs() < 1e-9);
    }

    #[test]
    fn remote_path_reports_the_wire_and_the_daemon() {
        let work_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/test-work");
        let workload = LearnRemote {
            units: &LRU_2,
            work_dir: work_dir.clone(),
        };
        let iteration = traced_iteration(&workload);
        let _ = std::fs::remove_dir_all(&work_dir);
        check_learning_laws(&iteration);
        // Every client-store miss is one query on the wire, and the daemon
        // answered exactly those.
        assert_eq!(
            layer(&iteration, "backend.queries"),
            layer(&iteration, "store.misses")
        );
        assert_eq!(
            layer(&iteration, "server.queries"),
            layer(&iteration, "store.misses")
        );
        assert!(layer(&iteration, "server.request_p50_us") > 0.0);
        assert!(layer(&iteration, "persist.appended") > 0.0);
    }

    #[test]
    fn hardware_path_votes_every_miss_at_least_five_times() {
        let iteration = traced_iteration(&LearnHw { seed: 1, sets: 1 });
        check_learning_laws(&iteration);
        assert!(layer(&iteration, "backend.queries") >= 5.0 * layer(&iteration, "store.misses"));
        assert!(layer(&iteration, "engine.run_batch_s") > 0.0);
        assert_eq!(iteration.attempted, 1);
    }
}
