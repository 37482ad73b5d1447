//! The text of served scores: every `SOURCE`, `TOPK`, `PAIR` and `BATCH`
//! line read off a real socket must be byte-identical to the line built
//! with Rust's `{}` Display from the engine's own answers, and the
//! encode phase of the score-list verbs must show up in `METRICS`.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use sling_core::{SharedEngine, SlingConfig, SlingIndex};
use sling_graph::generators::barabasi_albert;
use sling_graph::{DiGraph, NodeId};
use sling_server::{serve, Client, Listener, ServerConfig, ServerHandle};

fn setup() -> (DiGraph, SlingIndex) {
    let g = barabasi_albert(200, 3, 23).unwrap();
    let config = SlingConfig::from_epsilon(0.6, 0.1)
        .with_seed(11)
        .with_enhancement(true);
    let idx = SlingIndex::build(&g, &config).unwrap();
    (g, idx)
}

fn start(g: &DiGraph, idx: &SlingIndex) -> ServerHandle {
    serve(
        Arc::new(SharedEngine::from(idx.clone())),
        Arc::new(g.clone()),
        Listener::bind_tcp("127.0.0.1:0").unwrap(),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// Send one request line and return the raw response line.
fn raw_line(conn: &mut BufReader<TcpStream>, request: &str) -> String {
    let stream = conn.get_mut();
    stream.write_all(request.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut line = String::new();
    conn.read_line(&mut line).unwrap();
    assert!(line.ends_with('\n'), "unterminated response {line:?}");
    line.pop();
    line
}

#[test]
fn served_score_lines_equal_display_formatting() {
    let (g, idx) = setup();
    let reference = SharedEngine::from(idx.clone());
    let handle = start(&g, &idx);
    let addr = handle.local_addr().unwrap();
    let mut conn = BufReader::new(TcpStream::connect(addr).unwrap());

    for u in [0u32, 1, 7, 42, 199] {
        let scores = reference.single_source(&g, NodeId(u)).unwrap();
        let mut want = format!("OK {}", scores.len());
        for s in &scores {
            let _ = write!(want, " {s}");
        }
        assert_eq!(raw_line(&mut conn, &format!("SOURCE {u}")), want);

        let top = reference.top_k(&g, NodeId(u), 10).unwrap();
        let mut want = format!("OK {}", top.len());
        for (v, s) in &top {
            let _ = write!(want, " {}:{s}", v.0);
        }
        assert_eq!(raw_line(&mut conn, &format!("TOPK {u} 10")), want);

        let v = (u * 13 + 5) % 200;
        let s = reference
            .single_pair(&g, NodeId(u.min(v)), NodeId(u.max(v)))
            .unwrap();
        assert_eq!(
            raw_line(&mut conn, &format!("PAIR {u} {v}")),
            format!("OK {s}")
        );
    }
    let pairs = [(3u32, 9u32), (9, 3), (5, 5), (0, 150)];
    let mut want = format!("OK {}", pairs.len());
    for &(u, v) in &pairs {
        let s = reference
            .single_pair(&g, NodeId(u.min(v)), NodeId(u.max(v)))
            .unwrap();
        let _ = write!(want, " {s}");
    }
    assert_eq!(raw_line(&mut conn, "BATCH 3,9 9,3 5,5 0,150"), want);

    drop(conn);
    Client::connect_tcp(addr).unwrap().shutdown().unwrap();
    handle.join();
}

#[test]
fn encode_phase_histogram_counts_score_list_responses() {
    let (g, idx) = setup();
    let handle = start(&g, &idx);
    let addr = handle.local_addr().unwrap();
    let mut client = Client::connect_tcp(addr).unwrap();

    let count = |text: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix("sling_request_phase_encode_ns_count "))
            .unwrap_or_else(|| panic!("encode histogram missing from:\n{text}"))
            .parse()
            .unwrap()
    };
    assert_eq!(count(&client.metrics().unwrap()), 0);
    client.single_source(4).unwrap();
    // PAIR is deliberately not timed.
    client.pair(4, 9).unwrap();
    let text = client.metrics().unwrap();
    assert_eq!(count(&text), 1, "one SOURCE encoded:\n{text}");
    assert!(text.contains("# TYPE sling_request_phase_encode_ns histogram"));

    client.shutdown().unwrap();
    handle.join();
}
