//! The interactive CacheQuery shell (the "interactive mode" of §4.2).
//!
//! Run with: `cargo run --example mbl_repl -- [CPU]` and type MBL queries or
//! configuration commands (`help` lists them, `quit` exits).

use std::io::{self, BufRead, Write};

use cachequery::{process_command, CacheQuery, ReplSession};
use hardware::{CpuModel, SimulatedCpu};

fn main() {
    let cpu_name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "skylake".to_string());
    let model: CpuModel = cpu_name.parse().unwrap_or_else(|e| {
        eprintln!("mbl_repl: {e}");
        std::process::exit(2)
    });
    println!(
        "CacheQuery interactive shell on the simulated {}",
        model.spec().name
    );
    println!("type 'help' for commands, 'quit' to exit");

    let mut session = ReplSession::new(CacheQuery::new(SimulatedCpu::new(model, 7)));
    let stdin = io::stdin();
    loop {
        print!("cachequery> ");
        io::stdout().flush().expect("stdout is writable");
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line == "quit" || line == "exit" {
            break;
        }
        let response = process_command(&mut session, line);
        if !response.is_empty() {
            println!("{response}");
        }
    }
}
