//! The `cqd` wire protocol: newline-delimited JSON requests and responses.
//!
//! Every message is one JSON object on one line.  Requests carry a `"cmd"`
//! discriminator, responses a `"resp"` discriminator; integers are exact over
//! the whole `u64` range (the [`Json`] layer keeps them apart from floats).
//! The protocol is strictly request→response *except* for `wait`, which
//! streams zero or more non-final `status` lines (`"final": false`) before
//! the terminal one (`"final": true`) — a client must keep reading until the
//! final line.
//!
//! | Request (`cmd`) | Fields | Response (`resp`) |
//! |---|---|---|
//! | `hello` | — | `hello` (server, proto, workers) |
//! | `target` | full [`SessionSpec`] | `done` |
//! | `query` | `mbl` | `outcomes` |
//! | `batch` | `exprs` | `batch` (groups per expression) |
//! | `repl` | `line` (REPL command string) | `done` or `outcomes` |
//! | `learn` | `spec` (`POLICY@ASSOC`) | `job` (id) |
//! | `replay` | `spec`, `generator`, `accesses`, `lines`, `seed`, `job`? | `replay` |
//! | `map` | `model`, `seed`, `cat`?, `slice`, `sets` | `map` (the per-set cache map) |
//! | `job` | `id` | `status` |
//! | `wait` | `id` | `status`* … `status` (`final: true`) |
//! | `stats` | — | `stats` (global + session + store namespaces) |
//! | `metrics` | — | `metrics` (Prometheus text + typed snapshots) |
//! | `persist` | — | `done` (store flushed and snapshotted) |
//! | `quit` | — | `bye` |
//!
//! Any request can instead produce an `error` response.
//!
//! Each message is declared once, through `wire_struct!` and
//! `wire_enum!`: a field's doc comment, name, type and JSON key sit in one
//! line, and the struct or enum, its encoder and its decoder are all
//! generated from it.  A field's key is its name unless the declaration
//! says `as "key"`.  Encoding writes the fields in declaration order; a
//! variant that carries a wire struct (`Target`, `JobStatus`, `Replay`,
//! `Map`) splices the struct's fields in after the `cmd`/`resp` tag.

use std::fmt;

use crate::json::Json;

/// Version of the wire protocol described by this module.
///
/// Version history: 1 = the original PR 3 protocol; 2 = `policy` session
/// specs, live `hit_rate` in job status, `store_conflicts` + per-namespace
/// entry counts in `stats` (the additions are hard decode errors for a v1
/// client, so the handshake must signal the change); 3 = noise-robustness —
/// `+noise(...)` policy specs and the engine's vote-margin counters
/// (`votes`, `vote_escalations`, `vote_unsettled`,
/// `vote_min_margin_permille`) in `stats`; 4 = trace replay — the `replay`
/// command evaluates a policy (and optionally the learned machine of a
/// finished `learn` job) under synthetic memory traffic server-side; 5 =
/// cartography — the `map` command sweeps the sets of a simulated adaptive
/// last-level cache server-side (leader detection, per-group learning
/// through the shared store, follower flip probes) and returns the per-set
/// policy map; 6 = observability — the `metrics` command exposes the
/// daemon's metrics registry (Prometheus-style text plus typed snapshots),
/// `stats` gains `uptime_ms`, request-latency quantiles and per-namespace
/// store byte estimates, and job status lines carry the campaign's
/// per-phase query/duration profile; 7 = durability — the `persist` command
/// flushes and snapshots the daemon's durable store on demand, `stats`
/// gains store size/eviction and persistence counters (`store_entries`,
/// `store_evictions`, `persist_appended`, `persist_dropped`,
/// `persist_snapshots`, `persist_replayed`, `lock_poisoned`), and
/// per-namespace rows gain lifetime `hits`/`misses`.
pub const PROTOCOL_VERSION: u64 = 7;

/// A malformed protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

fn err(message: impl Into<String>) -> ProtoError {
    ProtoError(message.into())
}

/// A type that can sit in a wire message field: how a value renders as JSON
/// and how it is read back.
trait WireField: Sized {
    /// What decode errors call the JSON type (`integer`, `string`, …).
    const KIND: &'static str;

    /// Renders the value.
    fn to_json(&self) -> Json;

    /// Reads the value stored under `key` (`None` when the member is
    /// absent).  `Ok(None)` means "absent or of another JSON type": the
    /// caller words that error, since it differs between an object member
    /// and an array element.
    fn read(value: Option<&Json>, key: &str) -> Result<Option<Self>, ProtoError>;
}

/// Decodes the member `key` of the object `value`.
fn field<T: WireField>(value: &Json, key: &str) -> Result<T, ProtoError> {
    T::read(value.get(key), key)?.ok_or_else(|| err(format!("missing {} field '{key}'", T::KIND)))
}

/// Decodes one element of the array stored under `key`.
fn element<T: WireField>(value: &Json, key: &str) -> Result<T, ProtoError> {
    T::read(Some(value), key)?.ok_or_else(|| err(format!("'{key}' must contain {}s", T::KIND)))
}

impl WireField for u64 {
    const KIND: &'static str = "integer";

    fn to_json(&self) -> Json {
        Json::num(*self)
    }

    fn read(value: Option<&Json>, _key: &str) -> Result<Option<Self>, ProtoError> {
        Ok(value.and_then(Json::as_u64))
    }
}

impl WireField for String {
    const KIND: &'static str = "string";

    fn to_json(&self) -> Json {
        Json::str(self)
    }

    fn read(value: Option<&Json>, _key: &str) -> Result<Option<Self>, ProtoError> {
        Ok(value.and_then(Json::as_str).map(str::to_string))
    }
}

impl WireField for bool {
    const KIND: &'static str = "boolean";

    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }

    fn read(value: Option<&Json>, _key: &str) -> Result<Option<Self>, ProtoError> {
        Ok(value.and_then(Json::as_bool))
    }
}

impl WireField for f64 {
    const KIND: &'static str = "number";

    fn to_json(&self) -> Json {
        Json::Num(*self)
    }

    fn read(value: Option<&Json>, _key: &str) -> Result<Option<Self>, ProtoError> {
        Ok(value.and_then(Json::as_f64))
    }
}

/// An optional field is `null` (or absent) when `None`.
impl<T: WireField> WireField for Option<T> {
    const KIND: &'static str = T::KIND;

    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }

    fn read(value: Option<&Json>, key: &str) -> Result<Option<Self>, ProtoError> {
        let Some(value) = value.filter(|v| !matches!(v, Json::Null)) else {
            return Ok(Some(None));
        };
        let article = if T::KIND.starts_with(['a', 'e', 'i', 'o', 'u']) {
            "an"
        } else {
            "a"
        };
        match T::read(Some(value), key)? {
            Some(inner) => Ok(Some(Some(inner))),
            None => Err(err(format!("'{key}' must be {article} {}", T::KIND))),
        }
    }
}

impl<T: WireField> WireField for Vec<T> {
    const KIND: &'static str = "array";

    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }

    fn read(value: Option<&Json>, key: &str) -> Result<Option<Self>, ProtoError> {
        value
            .and_then(Json::as_arr)
            .map(|items| items.iter().map(|item| element(item, key)).collect())
            .transpose()
    }
}

/// The JSON key of a field: its name, or the `as "key"` override.
macro_rules! wire_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// Declares a wire struct: every field is `pub`, encodes under its key in
/// declaration order, and decodes with the `WireField` rules.  A struct
/// is itself a field type (a nested JSON object).
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                $field:ident $(as $key:literal)?: $ty:ty,
            )*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$field_meta])* pub $field: $ty, )*
        }

        impl $name {
            /// Appends the fields to `pairs` as `(key, value)` members.
            fn fields_after(&self, mut pairs: Vec<(String, Json)>) -> Vec<(String, Json)> {
                pairs.reserve_exact([$(stringify!($field)),*].len());
                $( pairs.push((wire_key!($field $($key)?).to_string(), self.$field.to_json())); )*
                pairs
            }

            fn decode_fields(value: &Json) -> Result<Self, ProtoError> {
                Ok($name {
                    $( $field: field(value, wire_key!($field $($key)?))?, )*
                })
            }
        }

        impl WireField for $name {
            const KIND: &'static str = "object";

            fn to_json(&self) -> Json {
                Json::Obj(self.fields_after(Vec::new()))
            }

            fn read(value: Option<&Json>, _key: &str) -> Result<Option<Self>, ProtoError> {
                value.map(Self::decode_fields).transpose()
            }
        }
    };
}

/// Expands to its second argument; lets `wire_enum!` bind the payload of
/// a variant that carries a wire struct.
macro_rules! bind_payload {
    ($ty:ty, $binding:ident) => {
        $binding
    };
}

/// Declares a wire message enum tagged by `$tag_key`.  A variant is a unit
/// (the tag alone), carries a wire struct whose fields follow the tag, or
/// has inline fields keyed by their names.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident tagged $tag_key:literal, unknown $what:literal {
            $(
                $(#[$variant_meta:meta])*
                $tag:literal => $variant:ident
                    $( ( $payload:ty ) )?
                    $( { $( $(#[$field_meta:meta])* $field:ident: $ty:ty, )* } )?,
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $(
                $(#[$variant_meta])*
                $variant $( ($payload) )? $( { $( $(#[$field_meta])* $field: $ty, )* } )?,
            )*
        }

        impl $name {
            fn to_json(&self) -> Json {
                match self {
                    $(
                        $name::$variant
                            $( (bind_payload!($payload, payload)) )?
                            $( { $($field),* } )? => {
                            let pairs = vec![
                                ($tag_key.to_string(), Json::str($tag)),
                                $( $( (stringify!($field).to_string(), $field.to_json()), )* )?
                            ];
                            $( let pairs = bind_payload!($payload, payload).fields_after(pairs); )?
                            Json::Obj(pairs)
                        }
                    )*
                }
            }

            fn from_json(value: &Json) -> Result<Self, ProtoError> {
                let tag: String = field(value, $tag_key)?;
                match tag.as_str() {
                    $(
                        $tag => Ok($name::$variant
                            $( (<$payload>::decode_fields(value)?) )?
                            $( { $( $field: field(value, stringify!($field))?, )* } )?),
                    )*
                    other => Err(err(format!(concat!("unknown ", $what, " '{}'"), other))),
                }
            }
        }
    };
}

wire_struct! {
    /// The complete backend/target configuration of one session, as sent
    /// with the `target` command.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SessionSpec {
        /// CPU model name (`haswell`, `skylake`, `kabylake`).
        model: String,
        /// Seed of the simulated machine (any `u64`: the wire carries it
        /// exactly).
        seed: u64,
        /// Target cache level (`L1`, `L2`, `L3`).
        level: String,
        /// Target set index within the slice.
        set: u64,
        /// Target slice index.
        slice: u64,
        /// Intel CAT restriction of the last-level cache, if any.
        cat: Option<u64>,
        /// Repetitions of the majority vote.
        reps: u64,
        /// Reset sequence (`F+R` or a custom MBL refill).
        reset: String,
        /// Target a bare simulated replacement policy (`POLICY@ASSOC`, e.g.
        /// `LRU@4`) instead of a simulated machine.  When set, the hardware
        /// fields above are ignored and the session shares the query-store
        /// namespace that `learn` campaigns for the same policy fill.  An
        /// optional `+noise(flip=R,drop=R,evict=R,seed=N,reps=N)` suffix
        /// (rates as fractions, e.g. `LRU@4+noise(flip=0.05,seed=1)`)
        /// injects seeded faults that the server-side engine absorbs by
        /// majority voting.
        policy: Option<String>,
    }
}

impl Default for SessionSpec {
    fn default() -> Self {
        SessionSpec {
            model: "skylake".to_string(),
            seed: 7,
            level: "L1".to_string(),
            set: 0,
            slice: 0,
            cat: None,
            reps: 3,
            reset: "F+R".to_string(),
            policy: None,
        }
    }
}

wire_enum! {
    /// A request from a client to the daemon.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request tagged "cmd", unknown "command" {
        /// Handshake: ask for server identity and protocol version.
        "hello" => Hello,
        /// Replace the session's backend/target configuration.
        "target" => Target(SessionSpec),
        /// Expand and run one MBL expression.
        "query" => Query {
            /// The MBL expression.
            mbl: String,
        },
        /// Run several MBL expressions (the batch mode of §4.2).
        "batch" => Batch {
            /// The expressions, answered in order.
            exprs: Vec<String>,
        },
        /// One line of the interactive REPL protocol (shared with
        /// `mbl_repl`).
        "repl" => Repl {
            /// The command line.
            line: String,
        },
        /// Start an asynchronous learning job.
        "learn" => Learn {
            /// `POLICY@ASSOC`, e.g. `LRU@2`, with the same optional
            /// `+noise(...)` suffix as [`SessionSpec::policy`] for a
            /// noise-robustness campaign.
            spec: String,
        },
        /// Replay a synthetic trace against a policy simulator — and, when
        /// `job` names a finished learning job, differentially against its
        /// learned machine.
        "replay" => Replay {
            /// `POLICY@ASSOC`, e.g. `LRU@2` (noise suffixes are rejected:
            /// replay needs a deterministic ground truth).
            spec: String,
            /// Trace generator name (`sequential`, `strided`, `zipfian`,
            /// `pointer-chase`).
            generator: String,
            /// Number of accesses to generate (clamped server-side).
            accesses: u64,
            /// Working-set size in cache lines (clamped server-side).
            lines: u64,
            /// Generator seed.
            seed: u64,
            /// Id of a finished `learn` job whose machine should be
            /// replayed differentially against the simulator.
            job: Option<u64>,
        },
        /// Map the sets of a simulated adaptive last-level cache
        /// server-side: classify every set (leader detection), learn each
        /// leader group's policy through the shared store, and flip-probe
        /// every follower for statistical evidence of adaptivity.
        ///
        /// The sweep should cover leaders of *both* duel classes (on the
        /// Skylake-like layout, ≥ 34 sets): the disambiguation drives work
        /// by making leaders vote the duel in a known direction, so a sweep
        /// that excludes every leader of one class cannot separate
        /// followers from leaders of the resident polarity — exactly like
        /// the published experiment, which sweeps the whole cache.
        "map" => Map {
            /// CPU model name (`haswell`, `skylake`, `kabylake`).
            model: String,
            /// Seed of the simulated machine.
            seed: u64,
            /// Intel CAT restriction of the last-level cache, if any.
            cat: Option<u64>,
            /// The slice whose sets are mapped.
            slice: u64,
            /// Number of sets to map, starting at index 0 (clamped
            /// server-side).
            sets: u64,
        },
        /// Poll the status of a learning job.
        "job" => Job {
            /// The job id returned by `learn`.
            id: u64,
        },
        /// Stream status lines until a learning job finishes.
        "wait" => Wait {
            /// The job id returned by `learn`.
            id: u64,
        },
        /// Global and per-session metrics.
        "stats" => Stats,
        /// The daemon's metrics registry: Prometheus-style text plus typed
        /// snapshots of every counter, gauge and latency histogram.
        "metrics" => Metrics,
        /// Flush the durable store's record log and write a compacted
        /// snapshot.  A no-op (still `done`) on a daemon running without
        /// `--store-dir`.
        "persist" => Persist,
        /// Close the session.
        "quit" => Quit,
    }
}

wire_struct! {
    /// One executed concrete query, as sent over the wire.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireOutcome {
        /// The rendered concrete query (after MBL expansion).
        query: String,
        /// Hit/miss pattern of the profiled accesses (`H` / `M` per access).
        pattern: String,
        /// Whether all repetitions agreed.
        consistent: bool,
        /// Whether the answer came from the shared cross-session store.
        cached: bool,
    }
}

wire_struct! {
    /// One L* phase of a learning campaign, as reported with a terminal job
    /// status: its name, the membership queries it issued, and its
    /// wall-clock share in milliseconds.  The query counts of a status
    /// line's phases sum exactly to its `queries` total (the learner's
    /// phase regions partition the run).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WirePhase {
        /// Phase name (`table_fill`, `closure`, `equivalence`,
        /// `identification`).
        name: String,
        /// Membership queries attributed to the phase.
        queries: u64,
        /// Wall-clock milliseconds spent in the phase.
        millis: u64,
    }
}

wire_struct! {
    /// One metric of the daemon's registry, in flat typed form (the
    /// structured counterpart of the Prometheus text a `metrics` response
    /// also carries).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireMetric {
        /// Metric name (e.g. `cqd_request_ns`).
        name: String,
        /// `counter`, `gauge` or `histogram`.
        kind: String,
        /// Counter/gauge value; for histograms, the sample count.
        value: u64,
        /// Sum of recorded samples (histograms only; 0 otherwise).
        sum: u64,
        /// Smallest recorded sample (histograms only; 0 otherwise).
        min: u64,
        /// Largest recorded sample (histograms only; 0 otherwise).
        max: u64,
        /// Median estimate (histograms only; 0 otherwise).
        p50: u64,
        /// 90th-percentile estimate (histograms only; 0 otherwise).
        p90: u64,
        /// 99th-percentile estimate (histograms only; 0 otherwise).
        p99: u64,
    }
}

wire_struct! {
    /// Status snapshot of a learning job.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireJobStatus {
        /// The job id.
        id: u64,
        /// `running`, `done` or `failed`.
        state: String,
        /// Human-readable detail (identification result or error).
        detail: String,
        /// Whether this is the last status line of a `wait` stream.
        finished as "final": bool,
        /// States of the current hypothesis (live while running, final
        /// when done, 0 when failed).
        states: u64,
        /// Membership queries issued so far (live while running).
        queries: u64,
        /// Memoization hit rate: the campaign's query-store namespace while
        /// running, the learner's prefix-trie cache once done.
        hit_rate: f64,
        /// Wall-clock milliseconds since the job started.
        millis: u64,
        /// Per-phase query/duration breakdown of the campaign (populated on
        /// `done` status lines; empty while running and on failures).
        phases: Vec<WirePhase>,
    }
}

wire_struct! {
    /// Global daemon counters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct WireStats {
        /// Sessions currently connected.
        sessions_active: u64,
        /// Sessions accepted since startup.
        sessions_total: u64,
        /// Concrete queries answered (store hits + backend runs).
        queries: u64,
        /// Concrete queries served from the shared cross-session store; the
        /// remainder (`queries - store_hits`) missed and ran on the backend.
        store_hits: u64,
        /// Queries executed by the backend pool.
        backend_queries: u64,
        /// Milliseconds since the daemon started.
        uptime_ms: u64,
        /// Median request-handling latency, in nanoseconds (0 until the
        /// first request is served).
        request_p50_ns: u64,
        /// 99th-percentile request-handling latency, in nanoseconds.
        request_p99_ns: u64,
        /// Worst request-handling latency observed, in nanoseconds.
        request_max_ns: u64,
        /// Learning jobs spawned.
        jobs_spawned: u64,
        /// Learning jobs in a terminal state.
        jobs_finished: u64,
        /// Workers currently executing backend work (backend occupancy).
        busy_workers: u64,
        /// Size of the worker pool.
        workers: u64,
        /// Store recordings dropped because they contradicted an earlier
        /// answer or were malformed (the nondeterminism signal of §7.1).
        store_conflicts: u64,
        /// Entries (trie nodes) currently held by the shared store.
        store_entries: u64,
        /// Namespaces cleared by the store's entry cap since startup (0
        /// when the store is unbounded).
        store_evictions: u64,
        /// Records handed to the store's persistence writer (0 when the
        /// daemon runs without `--store-dir`).
        persist_appended: u64,
        /// Appends lost to a full writer queue or write errors — durability
        /// gaps healed by the next snapshot, never in-memory data loss.
        persist_dropped: u64,
        /// Compacted snapshots written since startup.
        persist_snapshots: u64,
        /// Records replayed from disk when the store opened.
        persist_replayed: u64,
        /// Poisoned locks recovered on the request path (a worker or
        /// session panicked mid-operation; the daemon degrades instead of
        /// dying).
        lock_poisoned: u64,
        /// Queries that went through the engine's repetition/majority vote
        /// — session backends and learning campaigns alike (the tally lives
        /// on the shared store).
        votes: u64,
        /// Backend executions those votes consumed (repetitions and
        /// escalations included): `vote_executions / votes` is the
        /// effective repetition count of the voted traffic.
        vote_executions: u64,
        /// Voted queries that needed at least one escalation round.
        vote_escalations: u64,
        /// Voted queries whose margin never settled (answered but not
        /// stored).
        vote_unsettled: u64,
        /// Worst final vote margin observed, in permille (1000 until the
        /// first vote).
        vote_min_margin_permille: u64,
    }
}

impl WireStats {
    /// Fraction of answered queries served from the shared store.
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.store_hits as f64 / self.queries as f64
        }
    }
}

wire_struct! {
    /// One query-store namespace (a distinct backend configuration) and its
    /// size, as reported by the `stats` command.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireNamespace {
        /// The rendered backend configuration.
        name: String,
        /// Cached access prefixes (trie nodes) in the namespace.
        entries: u64,
        /// Estimated heap footprint of the namespace's trie, in bytes.
        bytes: u64,
        /// Lifetime lookups served from this namespace (survives eviction).
        hits: u64,
        /// Lifetime lookups that missed in this namespace.
        misses: u64,
    }
}

wire_struct! {
    /// Result of a server-side trace replay.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireReplay {
        /// The policy spec that was replayed.
        spec: String,
        /// The trace generator that produced the traffic.
        generator: String,
        /// Accesses replayed through the simulator.
        accesses: u64,
        /// Simulator hits.
        sim_hits: u64,
        /// Simulator misses.
        sim_misses: u64,
        /// Simulator evictions.
        sim_evictions: u64,
        /// States of the learned machine replayed differentially (0 when
        /// the request named no job and only the simulator ran).
        machine_states: u64,
        /// Learned-machine hits (0 without a machine).
        machine_hits: u64,
        /// Learned-machine misses (0 without a machine).
        machine_misses: u64,
        /// Whether simulator and machine disagreed on any access.
        diverged: bool,
        /// Rendered first divergence (empty when none).
        divergence: String,
    }
}

wire_struct! {
    /// One leader group of a `map` response: its class, the set the
    /// campaign learned, and the learning outcome in flat wire form.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireMapGroup {
        /// Detection class (`thrash-vulnerable` or `thrash-resistant`).
        class: String,
        /// Number of sets in the group.
        members: u64,
        /// Set index of the learned representative.
        representative_set: u64,
        /// Slice index of the learned representative.
        representative_slice: u64,
        /// The query-store namespace the campaign filled (the dedupe key).
        namespace: String,
        /// Outcome kind (`learned`, `not-deterministic` or `failed`).
        outcome: String,
        /// States of the learned automaton (0 unless `learned`).
        states: u64,
        /// Membership queries the campaign issued (0 unless `learned`).
        queries: u64,
        /// Library policy the automaton was identified as (empty if none).
        identified: String,
        /// Statistical disagreement in permille (0 unless
        /// `not-deterministic`).
        disagreement_permille: u64,
        /// Human-readable detail: the non-determinism evidence or the
        /// error.
        detail: String,
    }
}

wire_struct! {
    /// One mapped set of a `map` response.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireMapSet {
        /// Set index within the slice.
        set: u64,
        /// Slice index.
        slice: u64,
        /// Detection class (`thrash-vulnerable`, `thrash-resistant` or
        /// `adaptive`).
        class: String,
        /// Verdict kind (`fixed`, `fixed-nondet`, `adaptive` or
        /// `unmapped`).
        verdict: String,
        /// Identified policy of a `fixed` set (empty if unidentified).
        policy: String,
        /// States of a `fixed` set's learned automaton (0 otherwise).
        states: u64,
        /// Statistical evidence in permille: vote disagreement for
        /// `fixed-nondet`, flip-probe disagreement for `adaptive` (0
        /// otherwise).
        disagreement_permille: u64,
        /// The rendered error of an `unmapped` set (empty otherwise).
        detail: String,
    }
}

wire_struct! {
    /// The complete cache map returned by a `map` request.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireCacheMap {
        /// Short name of the mapped CPU model.
        model: String,
        /// The mapped cache level (`L3`).
        level: String,
        /// CAT restriction in effect during the campaign, if any.
        cat: Option<u64>,
        /// Per-group learning outcomes.
        groups: Vec<WireMapGroup>,
        /// One entry per mapped set.
        sets: Vec<WireMapSet>,
    }
}

wire_struct! {
    /// Counters of one session.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct WireSessionStats {
        /// Concrete queries answered for this session.
        queries: u64,
        /// Of those, answers served from the shared store.
        store_hits: u64,
    }
}

wire_enum! {
    /// A response from the daemon to a client.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response tagged "resp", unknown "response" {
        /// Handshake reply.
        "hello" => Hello {
            /// Server name (`cqd`).
            server: String,
            /// Protocol version.
            proto: u64,
            /// Worker-pool size.
            workers: u64,
        },
        /// Generic success with a human-readable message.
        "done" => Done {
            /// The message.
            message: String,
        },
        /// Results of one MBL expression.
        "outcomes" => Outcomes {
            /// One entry per expanded concrete query.
            results: Vec<WireOutcome>,
        },
        /// Results of a batch, grouped per expression.
        "batch" => Batch {
            /// One group per expression, in request order.
            groups: Vec<Vec<WireOutcome>>,
        },
        /// A learning job was started.
        "job" => JobStarted {
            /// Its id.
            id: u64,
        },
        /// A learning-job status line.
        "status" => JobStatus(WireJobStatus),
        /// Result of a `replay` request.
        "replay" => Replay(WireReplay),
        /// Result of a `map` request.
        "map" => Map(WireCacheMap),
        /// Metrics reply.
        "stats" => Stats {
            /// Daemon-wide counters.
            global: WireStats,
            /// This session's counters.
            session: WireSessionStats,
            /// Per-namespace entry counts of the shared query store.
            namespaces: Vec<WireNamespace>,
        },
        /// The daemon's metrics registry.
        "metrics" => Metrics {
            /// Prometheus-style text exposition of every metric.
            text: String,
            /// Typed snapshots of the same metrics, sorted by name.
            metrics: Vec<WireMetric>,
        },
        /// The request failed.
        "error" => Error {
            /// Why.
            message: String,
        },
        /// Session closed.
        "bye" => Bye,
    }
}

fn parse_line(line: &str) -> Result<Json, ProtoError> {
    Json::parse(line.trim()).map_err(|e| err(e.to_string()))
}

/// Encodes a request as one JSON line (without the trailing newline).
pub fn encode_request(request: &Request) -> String {
    request.to_json().render()
}

/// Decodes one request line.
///
/// # Errors
///
/// Returns a [`ProtoError`] for malformed JSON, unknown commands, or missing
/// fields.
pub fn decode_request(line: &str) -> Result<Request, ProtoError> {
    Request::from_json(&parse_line(line)?)
}

/// Encodes a response as one JSON line (without the trailing newline).
pub fn encode_response(response: &Response) -> String {
    response.to_json().render()
}

/// Decodes one response line.
///
/// # Errors
///
/// Returns a [`ProtoError`] for malformed JSON, unknown response kinds, or
/// missing fields.
pub fn decode_response(line: &str) -> Result<Response, ProtoError> {
    Response::from_json(&parse_line(line)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let requests = vec![
            Request::Hello,
            Request::Target(SessionSpec::default()),
            Request::Target(SessionSpec {
                model: "kabylake".into(),
                cat: Some(4),
                reset: "D C B A @".into(),
                ..SessionSpec::default()
            }),
            Request::Target(SessionSpec {
                policy: Some("LRU@4".into()),
                ..SessionSpec::default()
            }),
            Request::Query {
                mbl: "@ X _?".into(),
            },
            Request::Batch {
                exprs: vec!["A?".into(), "@ X A?".into()],
            },
            Request::Repl {
                line: "set 12".into(),
            },
            Request::Learn {
                spec: "LRU@2".into(),
            },
            Request::Replay {
                spec: "PLRU@4".into(),
                generator: "zipfian".into(),
                accesses: 100_000,
                lines: 256,
                seed: 7,
                job: None,
            },
            Request::Replay {
                spec: "LRU@2".into(),
                generator: "pointer-chase".into(),
                accesses: 5000,
                lines: 64,
                seed: 1,
                job: Some(2),
            },
            Request::Map {
                model: "skylake".into(),
                seed: 99,
                cat: Some(2),
                slice: 0,
                sets: 48,
            },
            Request::Map {
                model: "haswell".into(),
                seed: 7,
                cat: None,
                slice: 1,
                sets: 8,
            },
            Request::Job { id: 3 },
            Request::Wait { id: 9 },
            Request::Stats,
            Request::Metrics,
            Request::Persist,
            Request::Quit,
        ];
        for request in requests {
            let line = encode_request(&request);
            assert!(!line.contains('\n'));
            assert_eq!(decode_request(&line).unwrap(), request, "line: {line}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            Response::Hello {
                server: "cqd".into(),
                proto: PROTOCOL_VERSION,
                workers: 4,
            },
            Response::Done {
                message: "target set".into(),
            },
            Response::Outcomes {
                results: vec![WireOutcome {
                    query: "A B C A?".into(),
                    pattern: "H".into(),
                    consistent: true,
                    cached: false,
                }],
            },
            Response::Batch {
                groups: vec![
                    vec![],
                    vec![WireOutcome {
                        query: "X?".into(),
                        pattern: "M".into(),
                        consistent: true,
                        cached: true,
                    }],
                ],
            },
            Response::JobStarted { id: 1 },
            Response::JobStatus(WireJobStatus {
                id: 1,
                state: "done".into(),
                detail: "identified as LRU".into(),
                finished: true,
                states: 24,
                queries: 7569,
                hit_rate: 0.75,
                millis: 31,
                phases: vec![
                    WirePhase {
                        name: "table_fill".into(),
                        queries: 5000,
                        millis: 20,
                    },
                    WirePhase {
                        name: "equivalence".into(),
                        queries: 2569,
                        millis: 11,
                    },
                ],
            }),
            Response::JobStatus(WireJobStatus {
                id: 2,
                state: "running".into(),
                detail: "closing table".into(),
                finished: false,
                states: 0,
                queries: 120,
                hit_rate: 0.0,
                millis: 2,
                phases: vec![],
            }),
            Response::Replay(WireReplay {
                spec: "LRU@2".into(),
                generator: "strided".into(),
                accesses: 100_000,
                sim_hits: 61_000,
                sim_misses: 39_000,
                sim_evictions: 39_000,
                machine_states: 2,
                machine_hits: 61_000,
                machine_misses: 39_000,
                diverged: false,
                divergence: String::new(),
            }),
            Response::Replay(WireReplay {
                spec: "MRU@4".into(),
                generator: "sequential".into(),
                accesses: 10,
                sim_hits: 1,
                sim_misses: 9,
                sim_evictions: 9,
                machine_states: 0,
                machine_hits: 0,
                machine_misses: 0,
                diverged: true,
                divergence: "access 3 (0xc0 in set 3): simulator Hit, machine Miss".into(),
            }),
            Response::Map(WireCacheMap {
                model: "skylake".into(),
                level: "L3".into(),
                cat: Some(2),
                groups: vec![WireMapGroup {
                    class: "thrash-vulnerable".into(),
                    members: 2,
                    representative_set: 0,
                    representative_slice: 0,
                    namespace: "skylake seed=99 cat=2 reset=F+R reps=5 L3 set=0 slice=0".into(),
                    outcome: "learned".into(),
                    states: 7,
                    queries: 641,
                    identified: "New2".into(),
                    disagreement_permille: 0,
                    detail: String::new(),
                }],
                sets: vec![
                    WireMapSet {
                        set: 0,
                        slice: 0,
                        class: "thrash-vulnerable".into(),
                        verdict: "fixed".into(),
                        policy: "New2".into(),
                        states: 7,
                        disagreement_permille: 0,
                        detail: String::new(),
                    },
                    WireMapSet {
                        set: 5,
                        slice: 0,
                        class: "adaptive".into(),
                        verdict: "adaptive".into(),
                        policy: String::new(),
                        states: 0,
                        disagreement_permille: 333,
                        detail: "flip probe disagreed".into(),
                    },
                ],
            }),
            Response::Map(WireCacheMap {
                model: "haswell".into(),
                level: "L3".into(),
                cat: None,
                groups: vec![],
                sets: vec![],
            }),
            Response::Stats {
                global: WireStats {
                    sessions_active: 2,
                    sessions_total: 5,
                    queries: 100,
                    store_hits: 60,
                    backend_queries: 40,
                    uptime_ms: 12_345,
                    request_p50_ns: 8_000,
                    request_p99_ns: 95_000,
                    request_max_ns: 120_000,
                    jobs_spawned: 1,
                    jobs_finished: 1,
                    busy_workers: 0,
                    workers: 4,
                    store_conflicts: 2,
                    store_entries: 47,
                    store_evictions: 1,
                    persist_appended: 88,
                    persist_dropped: 2,
                    persist_snapshots: 3,
                    persist_replayed: 41,
                    lock_poisoned: 0,
                    votes: 40,
                    vote_executions: 302,
                    vote_escalations: 3,
                    vote_unsettled: 1,
                    vote_min_margin_permille: 333,
                },
                session: WireSessionStats {
                    queries: 10,
                    store_hits: 4,
                },
                namespaces: vec![
                    WireNamespace {
                        name: "skylake seed=7 cat=- reset=F+R reps=3 L1 set=0 slice=0".into(),
                        entries: 40,
                        bytes: 2048,
                        hits: 61,
                        misses: 40,
                    },
                    WireNamespace {
                        name: "policy:LRU@4 reset=cc0 reps=1 L1 set=0 slice=0".into(),
                        entries: 7,
                        bytes: 384,
                        hits: 0,
                        misses: 7,
                    },
                ],
            },
            Response::Metrics {
                text: "# TYPE cqd_queries_total counter\ncqd_queries_total 100\n".into(),
                metrics: vec![
                    WireMetric {
                        name: "cqd_queries_total".into(),
                        kind: "counter".into(),
                        value: 100,
                        sum: 0,
                        min: 0,
                        max: 0,
                        p50: 0,
                        p90: 0,
                        p99: 0,
                    },
                    WireMetric {
                        name: "cqd_request_ns".into(),
                        kind: "histogram".into(),
                        value: 12,
                        sum: 96_000,
                        min: 4_000,
                        max: 20_000,
                        p50: 8_000,
                        p90: 18_000,
                        p99: 20_000,
                    },
                ],
            },
            Response::Error {
                message: "no such job".into(),
            },
            Response::Bye,
        ];
        for response in responses {
            let line = encode_response(&response);
            assert!(!line.contains('\n'));
            assert_eq!(decode_response(&line).unwrap(), response, "line: {line}");
        }
    }

    #[test]
    fn seeds_beyond_2_pow_53_round_trip_exactly() {
        for seed in [(1u64 << 53) + 1, u64::MAX] {
            let requests = [
                Request::Target(SessionSpec {
                    seed,
                    ..SessionSpec::default()
                }),
                Request::Map {
                    model: "skylake".into(),
                    seed,
                    cat: None,
                    slice: 0,
                    sets: 8,
                },
                Request::Replay {
                    spec: "LRU@2".into(),
                    generator: "zipfian".into(),
                    accesses: 10,
                    lines: 4,
                    seed,
                    job: Some(seed),
                },
            ];
            for request in requests {
                let line = encode_request(&request);
                assert!(line.contains(&format!("\"seed\":{seed}")), "{line}");
                assert_eq!(decode_request(&line).unwrap(), request, "line: {line}");
            }
        }
    }

    #[test]
    fn unknown_messages_are_rejected() {
        assert!(decode_request("{\"cmd\":\"mystery\"}").is_err());
        assert!(decode_request("{\"mbl\":\"A?\"}").is_err());
        assert!(decode_request("not json").is_err());
        assert!(decode_response("{\"resp\":\"mystery\"}").is_err());
        assert!(decode_response("{}").is_err());
    }

    #[test]
    fn hit_rate_is_derived_from_store_counters() {
        assert_eq!(WireStats::default().hit_rate(), 0.0);
        let stats = WireStats {
            queries: 4,
            store_hits: 3,
            ..WireStats::default()
        };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-9);
    }
}
