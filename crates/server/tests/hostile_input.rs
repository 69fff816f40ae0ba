//! Hostile-input regression tests against a real `cqd` process: nesting
//! bombs in the JSON request line and in an MBL expression must come back
//! as error responses from a daemon that keeps serving, and malformed
//! numeric flags must stop the daemon from starting at all.
//!
//! Both parsers recurse once per nesting level: without their depth caps
//! either bomb overflows the session thread's stack, which aborts the whole
//! process.  Only a separate process makes that failure observable.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};

use server::{decode_response, Client, ClientError, Response};

/// Spawns `cqd` on an ephemeral port and parses its bound address from
/// stdout.
fn spawn_daemon() -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cqd"))
        .args(["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .stdin(Stdio::null())
        .spawn()
        .expect("spawn cqd");
    let stdout = child.stdout.take().expect("cqd stdout");
    let banner = BufReader::new(stdout)
        .lines()
        .next()
        .expect("cqd printed a banner")
        .expect("read cqd banner");
    let addr = banner
        .strip_prefix("cqd listening on ")
        .unwrap_or_else(|| panic!("unexpected cqd banner: {banner}"))
        .parse()
        .expect("parse cqd address");
    (child, addr)
}

#[test]
fn nesting_bombs_get_error_responses_and_the_daemon_keeps_serving() {
    let (mut child, addr) = spawn_daemon();

    // A 500 KB request line of `[`.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut bomb = "[".repeat(500_000);
    bomb.push('\n');
    stream.write_all(bomb.as_bytes()).expect("send JSON bomb");
    let mut reply = String::new();
    BufReader::new(stream.try_clone().expect("clone stream"))
        .read_line(&mut reply)
        .expect("read reply to JSON bomb");
    match decode_response(&reply).expect("a well-formed response") {
        Response::Error { message } => assert!(message.contains("nesting"), "{message}"),
        other => panic!("expected an error response, got {other:?}"),
    }
    drop(stream);

    // A `query` whose MBL nests `(` 200k deep, on the default target.
    let mut client = Client::connect(addr).expect("connect");
    let mbl = format!("{}A?{}", "(".repeat(200_000), ")".repeat(200_000));
    match client.query(&mbl) {
        Err(ClientError::Server(message)) => assert!(message.contains("nested"), "{message}"),
        other => panic!("expected a server error, got {other:?}"),
    }
    // The same session still answers a normal query.
    assert_eq!(client.query("A B A?").expect("normal query").len(), 1);
    drop(client);

    // A fresh connection gets a normal handshake from the same process.
    let info = Client::connect(addr)
        .expect("reconnect")
        .hello()
        .expect("hello after both bombs");
    assert_eq!(info.server, "cqd");
    assert!(child.try_wait().expect("poll cqd").is_none(), "cqd exited");
    child.kill().expect("stop cqd");
    child.wait().expect("reap cqd");
}

#[test]
fn malformed_numeric_flags_are_rejected_at_startup() {
    for (flag, value) in [
        ("--store-max-entries", "2M"),
        ("--workers", "four"),
        ("--queue-depth", "-1"),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_cqd"))
            .args(["--addr", "127.0.0.1:0", flag, value, "--until-eof"])
            .stdin(Stdio::null())
            .output()
            .expect("run cqd");
        assert!(!output.status.success(), "cqd accepted {flag} {value}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(flag) && stderr.contains(value),
            "unhelpful error for {flag} {value}: {stderr}"
        );
        assert!(
            output.stdout.is_empty(),
            "cqd started listening despite {flag} {value}"
        );
    }
}
