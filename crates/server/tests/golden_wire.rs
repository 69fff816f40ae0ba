//! Golden wire lines: one value of every `Request` and `Response` variant
//! and the exact line `cqd` puts on the wire for it.  The lines pin the
//! byte format (keys, key order, number rendering, escaping), so a codec
//! rewrite that changes any byte fails here even when it still round-trips.

use server::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
    SessionSpec, WireCacheMap, WireJobStatus, WireMapGroup, WireMapSet, WireMetric, WireNamespace,
    WireOutcome, WirePhase, WireReplay, WireSessionStats, WireStats,
};

fn outcome(query: &str, pattern: &str, consistent: bool, cached: bool) -> WireOutcome {
    WireOutcome {
        query: query.into(),
        pattern: pattern.into(),
        consistent,
        cached,
    }
}

fn requests() -> Vec<(Request, &'static str)> {
    vec![
        (Request::Hello, r#"{"cmd":"hello"}"#),
        (
            Request::Target(SessionSpec {
                model: "kabylake".into(),
                seed: 123_456_789,
                level: "L3".into(),
                set: 17,
                slice: 2,
                cat: Some(4),
                reps: 5,
                reset: "D C B A @".into(),
                policy: None,
            }),
            r##"{"cmd":"target","model":"kabylake","seed":123456789,"level":"L3","set":17,"slice":2,"cat":4,"reps":5,"reset":"D C B A @","policy":null}"##,
        ),
        (
            Request::Query {
                mbl: "@ X _? \"quoted\"\n".into(),
            },
            r##"{"cmd":"query","mbl":"@ X _? \"quoted\"\n"}"##,
        ),
        (
            Request::Batch {
                exprs: vec!["A?".into(), "@ X A?".into()],
            },
            r##"{"cmd":"batch","exprs":["A?","@ X A?"]}"##,
        ),
        (
            Request::Repl {
                line: "set 12".into(),
            },
            r##"{"cmd":"repl","line":"set 12"}"##,
        ),
        (
            Request::Learn {
                spec: "LRU@4+noise(flip=0.05,seed=1)".into(),
            },
            r##"{"cmd":"learn","spec":"LRU@4+noise(flip=0.05,seed=1)"}"##,
        ),
        (
            Request::Replay {
                spec: "PLRU@4".into(),
                generator: "zipfian".into(),
                accesses: 100_000,
                lines: 256,
                seed: 7,
                job: Some(2),
            },
            r##"{"cmd":"replay","spec":"PLRU@4","generator":"zipfian","accesses":100000,"lines":256,"seed":7,"job":2}"##,
        ),
        (
            Request::Map {
                model: "skylake".into(),
                seed: 99,
                cat: None,
                slice: 0,
                sets: 48,
            },
            r##"{"cmd":"map","model":"skylake","seed":99,"cat":null,"slice":0,"sets":48}"##,
        ),
        (Request::Job { id: 3 }, r#"{"cmd":"job","id":3}"#),
        (Request::Wait { id: 9 }, r#"{"cmd":"wait","id":9}"#),
        (Request::Stats, r#"{"cmd":"stats"}"#),
        (Request::Metrics, r#"{"cmd":"metrics"}"#),
        (Request::Persist, r#"{"cmd":"persist"}"#),
        (Request::Quit, r#"{"cmd":"quit"}"#),
    ]
}

fn responses() -> Vec<(Response, &'static str)> {
    vec![
        (
            Response::Hello {
                server: "cqd".into(),
                proto: 7,
                workers: 4,
            },
            r##"{"resp":"hello","server":"cqd","proto":7,"workers":4}"##,
        ),
        (
            Response::Done {
                message: "target set".into(),
            },
            r##"{"resp":"done","message":"target set"}"##,
        ),
        (
            Response::Outcomes {
                results: vec![outcome("A B C A?", "H", true, false)],
            },
            r##"{"resp":"outcomes","results":[{"query":"A B C A?","pattern":"H","consistent":true,"cached":false}]}"##,
        ),
        (
            Response::Batch {
                groups: vec![vec![], vec![outcome("X?", "M", true, true)]],
            },
            r##"{"resp":"batch","groups":[[],[{"query":"X?","pattern":"M","consistent":true,"cached":true}]]}"##,
        ),
        (Response::JobStarted { id: 1 }, r#"{"resp":"job","id":1}"#),
        (
            Response::JobStatus(WireJobStatus {
                id: 1,
                state: "done".into(),
                detail: "identified as LRU".into(),
                finished: true,
                states: 24,
                queries: 7569,
                hit_rate: 0.75,
                millis: 31,
                phases: vec![WirePhase {
                    name: "table_fill".into(),
                    queries: 5000,
                    millis: 20,
                }],
            }),
            r##"{"resp":"status","id":1,"state":"done","detail":"identified as LRU","final":true,"states":24,"queries":7569,"hit_rate":0.75,"millis":31,"phases":[{"name":"table_fill","queries":5000,"millis":20}]}"##,
        ),
        (
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
            r##"{"resp":"replay","spec":"MRU@4","generator":"sequential","accesses":10,"sim_hits":1,"sim_misses":9,"sim_evictions":9,"machine_states":0,"machine_hits":0,"machine_misses":0,"diverged":true,"divergence":"access 3 (0xc0 in set 3): simulator Hit, machine Miss"}"##,
        ),
        (
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
                sets: vec![WireMapSet {
                    set: 5,
                    slice: 0,
                    class: "adaptive".into(),
                    verdict: "adaptive".into(),
                    policy: String::new(),
                    states: 0,
                    disagreement_permille: 333,
                    detail: "flip probe disagreed".into(),
                }],
            }),
            r##"{"resp":"map","model":"skylake","level":"L3","cat":2,"groups":[{"class":"thrash-vulnerable","members":2,"representative_set":0,"representative_slice":0,"namespace":"skylake seed=99 cat=2 reset=F+R reps=5 L3 set=0 slice=0","outcome":"learned","states":7,"queries":641,"identified":"New2","disagreement_permille":0,"detail":""}],"sets":[{"set":5,"slice":0,"class":"adaptive","verdict":"adaptive","policy":"","states":0,"disagreement_permille":333,"detail":"flip probe disagreed"}]}"##,
        ),
        (
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
                namespaces: vec![WireNamespace {
                    name: "policy:LRU@4 reset=cc0 reps=1 L1 set=0 slice=0".into(),
                    entries: 7,
                    bytes: 384,
                    hits: 0,
                    misses: 7,
                }],
            },
            r##"{"resp":"stats","global":{"sessions_active":2,"sessions_total":5,"queries":100,"store_hits":60,"backend_queries":40,"uptime_ms":12345,"request_p50_ns":8000,"request_p99_ns":95000,"request_max_ns":120000,"jobs_spawned":1,"jobs_finished":1,"busy_workers":0,"workers":4,"store_conflicts":2,"store_entries":47,"store_evictions":1,"persist_appended":88,"persist_dropped":2,"persist_snapshots":3,"persist_replayed":41,"lock_poisoned":0,"votes":40,"vote_executions":302,"vote_escalations":3,"vote_unsettled":1,"vote_min_margin_permille":333},"session":{"queries":10,"store_hits":4},"namespaces":[{"name":"policy:LRU@4 reset=cc0 reps=1 L1 set=0 slice=0","entries":7,"bytes":384,"hits":0,"misses":7}]}"##,
        ),
        (
            Response::Metrics {
                text: "# TYPE cqd_queries_total counter\ncqd_queries_total 100\n".into(),
                metrics: vec![WireMetric {
                    name: "cqd_request_ns".into(),
                    kind: "histogram".into(),
                    value: 12,
                    sum: 96_000,
                    min: 4_000,
                    max: 20_000,
                    p50: 8_000,
                    p90: 18_000,
                    p99: 20_000,
                }],
            },
            r##"{"resp":"metrics","text":"# TYPE cqd_queries_total counter\ncqd_queries_total 100\n","metrics":[{"name":"cqd_request_ns","kind":"histogram","value":12,"sum":96000,"min":4000,"max":20000,"p50":8000,"p90":18000,"p99":20000}]}"##,
        ),
        (
            Response::Error {
                message: "no such job".into(),
            },
            r##"{"resp":"error","message":"no such job"}"##,
        ),
        (Response::Bye, r#"{"resp":"bye"}"#),
    ]
}

/// Malformed request lines and the error each decodes to: one fault per
/// line, so the text names exactly the broken field.
const BAD_REQUESTS: &[(&str, &str)] = &[
    (
        r##"{"cmd":"target","model":"skylake","level":"L1","set":0,"slice":0,"cat":null,"reps":3,"reset":"F+R","policy":null}"##,
        "missing integer field 'seed'",
    ),
    (
        r##"{"cmd":"target","model":"skylake","seed":1,"level":"L1","set":0,"slice":0,"cat":"x","reps":3,"reset":"F+R","policy":null}"##,
        "'cat' must be an integer",
    ),
    (
        r##"{"cmd":"target","model":"skylake","seed":1,"level":"L1","set":0,"slice":0,"cat":null,"reps":3,"reset":"F+R","policy":4}"##,
        "'policy' must be a string",
    ),
    (
        r##"{"cmd":"target","model":7,"seed":1,"level":"L1","set":0,"slice":0,"reps":3,"reset":"F+R"}"##,
        "missing string field 'model'",
    ),
    (
        r##"{"cmd":"batch","exprs":"A?"}"##,
        "missing array field 'exprs'",
    ),
    (
        r##"{"cmd":"batch","exprs":["A?",3]}"##,
        "'exprs' must contain strings",
    ),
    (
        r##"{"cmd":"replay","spec":"LRU@2","generator":"strided","accesses":10,"lines":4,"seed":1,"job":-1}"##,
        "'job' must be an integer",
    ),
    (
        r##"{"cmd":"map","model":"skylake","seed":1,"cat":null,"slice":0}"##,
        "missing integer field 'sets'",
    ),
    (r##"{"cmd":"job","id":1.5}"##, "missing integer field 'id'"),
    (r##"{"cmd":"mystery"}"##, "unknown command 'mystery'"),
    (r##"{"mbl":"A?"}"##, "missing string field 'cmd'"),
    (r##"not json"##, "JSON error at byte 0: expected 'null'"),
];

/// Malformed response lines and the error each decodes to.
const BAD_RESPONSES: &[(&str, &str)] = &[
    (
        r##"{"resp":"status","id":1,"state":"done","detail":"","states":1,"queries":1,"hit_rate":0.5,"millis":1,"phases":[]}"##,
        "missing boolean field 'final'",
    ),
    (
        r##"{"resp":"status","id":1,"state":"done","detail":"","final":true,"states":1,"queries":1,"hit_rate":"x","millis":1,"phases":[]}"##,
        "missing number field 'hit_rate'",
    ),
    (
        r##"{"resp":"status","id":1,"state":"done","detail":"","final":true,"states":1,"queries":1,"hit_rate":0.5,"millis":1}"##,
        "missing array field 'phases'",
    ),
    (
        r##"{"resp":"status","id":1,"state":"done","detail":"","final":true,"states":1,"queries":1,"hit_rate":0.5,"millis":1,"phases":[{"name":"x","queries":1}]}"##,
        "missing integer field 'millis'",
    ),
    (
        r##"{"resp":"batch","groups":[[],3]}"##,
        "'groups' must contain arrays",
    ),
    (
        r##"{"resp":"outcomes","results":[{"query":"A?","pattern":"H","consistent":true}]}"##,
        "missing boolean field 'cached'",
    ),
    (
        r##"{"resp":"stats","session":{"queries":1,"store_hits":0},"namespaces":[]}"##,
        "missing object field 'global'",
    ),
    (
        r##"{"resp":"stats","global":{},"session":{"queries":1,"store_hits":0},"namespaces":[]}"##,
        "missing integer field 'sessions_active'",
    ),
    (
        r##"{"resp":"map","model":"skylake","level":"L3","cat":null,"groups":[],"sets":[{}]}"##,
        "missing integer field 'set'",
    ),
    (
        r##"{"resp":"metrics","text":"","metrics":null}"##,
        "missing array field 'metrics'",
    ),
    (r##"{"resp":"mystery"}"##, "unknown response 'mystery'"),
    (r##"{}"##, "missing string field 'resp'"),
];

#[test]
fn every_request_variant_encodes_to_its_golden_line() {
    for (request, golden) in requests() {
        assert_eq!(encode_request(&request), golden);
        assert_eq!(decode_request(golden).unwrap(), request, "line: {golden}");
    }
}

#[test]
fn every_response_variant_encodes_to_its_golden_line() {
    for (response, golden) in responses() {
        assert_eq!(encode_response(&response), golden);
        assert_eq!(decode_response(golden).unwrap(), response, "line: {golden}");
    }
}

#[test]
fn malformed_lines_decode_to_their_golden_errors() {
    for (line, message) in BAD_REQUESTS {
        assert_eq!(
            decode_request(line).unwrap_err().0,
            *message,
            "line: {line}"
        );
    }
    for (line, message) in BAD_RESPONSES {
        assert_eq!(
            decode_response(line).unwrap_err().0,
            *message,
            "line: {line}"
        );
    }
}
