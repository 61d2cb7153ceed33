//! Hostile request heads against `verifd::http::read_request`, the reader
//! both accept loops run on every connection. Seeded random and mutated
//! requests go through a loopback socket pair, one connection at a time:
//! truncated lines, a missing, non-numeric or oversized `Content-Length`,
//! non-UTF-8 bytes and header runs past `http::MAX_HEAD`. Each must come
//! back as a request or an error, never a panic. The client shuts down its
//! write side after sending, so no case waits out `http::IO_TIMEOUT`.

use analysis::SplitMix64;
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Instant;
use verifd::http::{self, Request, IO_TIMEOUT, MAX_BODY, MAX_HEAD};

/// Mutated requests per run.
const CASES: usize = 3000;

/// Well-formed requests, what `read_request` makes of each, and the
/// starting points of the mutations.
const WELL_FORMED: [(&str, &str, &str, &str); 4] = [
    ("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", "GET", "/healthz", ""),
    (
        "POST /campaign HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 15\r\n\r\n{\"target\":\"iu\"}",
        "POST",
        "/campaign",
        "{\"target\":\"iu\"}",
    ),
    (
        "POST /merge HTTP/1.1\r\ncontent-length: 5\r\n\r\n[1,2]",
        "POST",
        "/merge",
        "[1,2]",
    ),
    ("GET /stats HTTP/1.0\n\n", "GET", "/stats", ""),
];

/// Send `bytes` on a fresh connection, close the sending side, and read
/// one request from the server's end.
fn exchange(listener: &TcpListener, bytes: &[u8]) -> std::io::Result<Request> {
    let addr = listener.local_addr().expect("a bound listener");
    let mut client = TcpStream::connect(addr).expect("connect over loopback");
    let server = http::accept(listener).expect("accept over loopback");
    client.write_all(bytes).expect("send the request");
    client
        .shutdown(Shutdown::Write)
        .expect("close the sending side");
    http::read_request(&server)
}

/// A byte that is never valid on its own in UTF-8.
fn non_utf8(rng: &mut SplitMix64) -> u8 {
    0x80 | rng.gen_range(0x80) as u8
}

/// A seeded mutation of one of the well-formed requests, or random bytes.
fn mutated(rng: &mut SplitMix64) -> Vec<u8> {
    let base = WELL_FORMED[rng.gen_range(WELL_FORMED.len() as u64) as usize].0;
    let mut bytes = base.as_bytes().to_vec();
    let at = |rng: &mut SplitMix64, len: usize| rng.gen_range(len as u64 + 1) as usize;
    match rng.gen_range(8) {
        // Random bytes, any length up to past the head cap.
        0 => {
            let len = rng.gen_range(2 * MAX_HEAD as u64) as usize;
            bytes = (0..len).map(|_| rng.next_u32() as u8).collect();
        }
        // A truncated line: cut anywhere, the end of the head included.
        1 => bytes.truncate(at(rng, bytes.len())),
        // Flipped bytes, some of them outside UTF-8.
        2 => {
            for _ in 0..=rng.gen_range(4) {
                let i = rng.gen_range(bytes.len() as u64) as usize;
                bytes[i] = if rng.gen_range(2) == 0 {
                    non_utf8(rng)
                } else {
                    rng.next_u32() as u8
                };
            }
        }
        // A non-numeric, negative, oversized or empty `Content-Length`.
        3 => {
            let values = [
                "abc".to_string(),
                "-1".to_string(),
                "1e3".to_string(),
                String::new(),
                (MAX_BODY + 1).to_string(),
                u64::MAX.to_string(),
                "99999999999999999999999".to_string(),
                format!("{}", rng.gen_range(MAX_BODY as u64)),
            ];
            let value = &values[rng.gen_range(values.len() as u64) as usize];
            let head_end = find(&bytes, b"\n\r\n").or_else(|| find(&bytes, b"\n\n"));
            let i = head_end.map_or(bytes.len(), |i| i + 1);
            let header = format!("Content-Length: {value}\r\n");
            bytes.splice(i..i, header.bytes());
        }
        // No `Content-Length`, whatever body follows.
        4 => {
            let text = String::from_utf8_lossy(&bytes).into_owned();
            let kept: Vec<&str> = text
                .split_inclusive('\n')
                .filter(|line| !line.to_ascii_lowercase().starts_with("content-length"))
                .collect();
            bytes = kept.concat().into_bytes();
        }
        // A header run past the head cap: many headers, or one long line.
        5 => {
            let i = find(&bytes, b"\n").map_or(0, |i| i + 1);
            let run = if rng.gen_range(2) == 0 {
                "X-Pad: padding\r\n".repeat(MAX_HEAD / 16 + 1 + rng.gen_range(64) as usize)
            } else {
                format!(
                    "X-Long: {}\r\n",
                    "a".repeat(MAX_HEAD + rng.gen_range(64) as usize)
                )
            };
            bytes.splice(i..i, run.bytes());
        }
        // Non-UTF-8 bytes inserted anywhere, the request line included.
        6 => {
            for _ in 0..=rng.gen_range(3) {
                let i = at(rng, bytes.len());
                let b = non_utf8(rng);
                bytes.insert(i, b);
            }
        }
        // A body shorter than its `Content-Length`.
        _ => {
            let cut = rng.gen_range(4) as usize + 1;
            bytes.truncate(bytes.len().saturating_sub(cut));
        }
    }
    bytes
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[test]
fn well_formed_requests_are_read_whole() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    for (bytes, method, path, body) in WELL_FORMED {
        let request = exchange(&listener, bytes.as_bytes()).expect("a well-formed request");
        assert_eq!(
            (request.method.as_str(), request.path.as_str()),
            (method, path)
        );
        assert_eq!(request.body, body);
    }
}

#[test]
fn hostile_requests_are_errors_never_panics_or_stalls() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let mut rng = SplitMix64::new(0x6874_7470);
    let (mut read, mut refused) = (0, 0);
    for case in 0..CASES {
        let bytes = mutated(&mut rng);
        let began = Instant::now();
        match exchange(&listener, &bytes) {
            Ok(_) => read += 1,
            Err(_) => refused += 1,
        }
        assert!(
            began.elapsed() < IO_TIMEOUT,
            "case {case} ({} bytes) waited on a read",
            bytes.len()
        );
    }
    assert!(read > 0 && refused > 0, "{read} read, {refused} refused");
}
