//! Standalone `cqd` daemon.
//!
//! Usage: `cqd [--addr HOST:PORT] [--workers N] [--queue-depth N]
//! [--trace-log PATH] [--store-dir DIR] [--store-max-entries N]`
//!
//! With `--store-dir`, the shared query store is durable: answers append to
//! a record log in DIR, are compacted into snapshots, and replay on the next
//! start — a restarted daemon serves yesterday's campaign from memory, and a
//! `kill -9` loses at most the unsynced log tail.  `--store-max-entries`
//! bounds the store, evicting the least recently touched namespaces whole.
//! A numeric flag with a malformed value is an error (exit status 2), never
//! silently ignored.
//!
//! Runs until killed (or until stdin reaches EOF when `--until-eof` is
//! given, which is how the smoke tests drive a bounded run).

use server::{spawn, CqdConfig};

fn value_of(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parses the value of the numeric flag `name`, exiting with status 2 when
/// the flag is present but its value is missing or malformed.
fn number_of<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let position = args.iter().position(|a| a == name)?;
    let value = args.get(position + 1).map_or("", String::as_str);
    match value.parse() {
        Ok(number) => Some(number),
        Err(_) => {
            eprintln!("cqd: invalid value '{value}' for {name}: expected a non-negative integer");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = CqdConfig::default();
    if let Some(addr) = value_of(&args, "--addr") {
        config.addr = addr;
    }
    if let Some(workers) = number_of(&args, "--workers") {
        config.workers = workers;
    }
    if let Some(depth) = number_of(&args, "--queue-depth") {
        config.queue_depth = depth;
    }
    if let Some(path) = value_of(&args, "--trace-log") {
        config.trace_log = Some(path.into());
    }
    if let Some(dir) = value_of(&args, "--store-dir") {
        config.store_dir = Some(dir.into());
    }
    config.store_max_entries = number_of(&args, "--store-max-entries");
    let until_eof = args.iter().any(|a| a == "--until-eof");

    let daemon = match spawn(config) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("cqd: failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!("cqd listening on {}", daemon.addr());

    if until_eof {
        // Exit when the parent closes our stdin (test harness mode).
        let mut sink = String::new();
        while std::io::stdin().read_line(&mut sink).unwrap_or(0) > 0 {
            sink.clear();
        }
        daemon.shutdown();
    } else {
        // Serve forever: park the main thread.
        loop {
            std::thread::park();
        }
    }
}
