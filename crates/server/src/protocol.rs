//! Request parsing and response formatting for the wire protocol
//! (see the crate docs for the full grammar).
//!
//! Scores travel as text byte-identical to Rust's `{}` formatting of
//! `f64` — the shortest decimal that round-trips — so `parse::<f64>()`
//! on the client recovers the bit-identical value the server computed.
//! That is what lets the equivalence tests compare served scores
//! against the serial in-memory path with `==` rather than a tolerance.

use std::fmt::Write as _;
use std::io::Write as _;

use crate::float::write_f64;

/// Upper bound on one request line; longer lines are rejected before
/// parsing so a misbehaving client cannot balloon server memory.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A parsed request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// `PAIR <u> <v>` — single-pair SimRank score.
    Pair { u: u32, v: u32 },
    /// `SOURCE <u>` — full single-source score vector.
    Source { u: u32 },
    /// `TOPK <u> <k>` — the `k` most similar nodes to `u`.
    TopK { u: u32, k: usize },
    /// `BATCH <u1>,<v1> ..` — positionally aligned single-pair scores.
    Batch { pairs: Vec<(u32, u32)> },
    /// `STATS` — server and cache counters.
    Stats,
    /// `METRICS` — full Prometheus text exposition, length-framed as
    /// `OK <bytes>` followed by exactly that many payload bytes.
    Metrics,
    /// `SLOWLOG` — recent slow-query records, length-framed like
    /// `METRICS` (one record per line, oldest first).
    Slowlog,
    /// `TRACE <from> <max>` — up to `max` retained traffic-trace
    /// records with sequence number `>= from`, length-framed like
    /// `METRICS`. The payload's first line is
    /// `base_us=<u64> next_seq=<u64> dropped=<u64>`; each further line
    /// is `<seq> <record>` where `<record>` is a `SLNGTRACE` record
    /// line with its timestamp encoded absolute (delta from 0). Only
    /// answered by servers started with recording enabled.
    Trace {
        /// First sequence number wanted (poll cursor; start at 0).
        from: u64,
        /// Maximum records in the response (server clamps further).
        max: usize,
    },
    /// `RELOAD` — check the generation store's `CURRENT` pointer and
    /// hot-swap to a newer promoted generation if one exists. `RELOAD
    /// FORCE` additionally lifts a quarantine (see the crate docs on
    /// corrupt-generation rollback) before swapping.
    Reload {
        /// Lift the target generation's quarantine before swapping.
        force: bool,
    },
    /// `PING` — liveness probe.
    Ping,
    /// `QUIT` — close this connection.
    Quit,
    /// `SHUTDOWN` — drain and stop the whole server.
    Shutdown,
}

impl Request {
    /// Parse one request line (without the trailing newline).
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut tokens = line.split_ascii_whitespace();
        let verb = tokens.next().ok_or("empty request")?;
        let req = match verb {
            "PAIR" => Request::Pair {
                u: parse_node(tokens.next(), "u")?,
                v: parse_node(tokens.next(), "v")?,
            },
            "SOURCE" => Request::Source {
                u: parse_node(tokens.next(), "u")?,
            },
            "TOPK" => Request::TopK {
                u: parse_node(tokens.next(), "u")?,
                k: tokens
                    .next()
                    .ok_or("TOPK expects <u> <k>")?
                    .parse()
                    .map_err(|_| "TOPK: cannot parse <k>".to_string())?,
            },
            "BATCH" => {
                let mut pairs = Vec::new();
                for tok in tokens.by_ref() {
                    let (u, v) = tok
                        .split_once(',')
                        .ok_or_else(|| format!("BATCH: expected <u>,<v>, got {tok:?}"))?;
                    pairs.push((parse_node(Some(u), "u")?, parse_node(Some(v), "v")?));
                }
                if pairs.is_empty() {
                    return Err("BATCH expects at least one <u>,<v> pair".to_string());
                }
                Request::Batch { pairs }
            }
            "STATS" => Request::Stats,
            "METRICS" => Request::Metrics,
            "SLOWLOG" => Request::Slowlog,
            "TRACE" => Request::Trace {
                from: tokens
                    .next()
                    .ok_or("TRACE expects <from> <max>")?
                    .parse()
                    .map_err(|_| "TRACE: cannot parse <from>".to_string())?,
                max: tokens
                    .next()
                    .ok_or("TRACE expects <from> <max>")?
                    .parse()
                    .map_err(|_| "TRACE: cannot parse <max>".to_string())?,
            },
            "RELOAD" => match tokens.next() {
                None => Request::Reload { force: false },
                Some("FORCE") => Request::Reload { force: true },
                Some(other) => {
                    return Err(format!("RELOAD takes no argument or FORCE, got {other:?}"))
                }
            },
            "PING" => Request::Ping,
            "QUIT" => Request::Quit,
            "SHUTDOWN" => Request::Shutdown,
            other => return Err(format!("unknown request {other:?}")),
        };
        if tokens.next().is_some() {
            return Err(format!("trailing arguments after {verb}"));
        }
        Ok(req)
    }

    /// Encode this request as one protocol line (without the newline).
    pub fn encode(&self) -> String {
        match self {
            Request::Pair { u, v } => format!("PAIR {u} {v}"),
            Request::Source { u } => format!("SOURCE {u}"),
            Request::TopK { u, k } => format!("TOPK {u} {k}"),
            Request::Batch { pairs } => {
                let mut out = String::from("BATCH");
                for (u, v) in pairs {
                    let _ = write!(out, " {u},{v}");
                }
                out
            }
            Request::Stats => "STATS".to_string(),
            Request::Metrics => "METRICS".to_string(),
            Request::Slowlog => "SLOWLOG".to_string(),
            Request::Trace { from, max } => format!("TRACE {from} {max}"),
            Request::Reload { force: false } => "RELOAD".to_string(),
            Request::Reload { force: true } => "RELOAD FORCE".to_string(),
            Request::Ping => "PING".to_string(),
            Request::Quit => "QUIT".to_string(),
            Request::Shutdown => "SHUTDOWN".to_string(),
        }
    }
}

fn parse_node(tok: Option<&str>, name: &str) -> Result<u32, String> {
    let raw = tok.ok_or_else(|| format!("missing <{name}>"))?;
    raw.parse()
        .map_err(|_| format!("cannot parse node id {raw:?}"))
}

/// Append a score list to a response line: `<count> <s0> <s1> ..`.
///
/// Each score is byte-identical to Rust's `{}` Display of the computed
/// `f64` (see [`write_f64`]), so a client that parses it recovers the
/// same bits and a client that hashes the line sees the same bytes.
pub(crate) fn write_scores(out: &mut Vec<u8>, scores: &[f64]) {
    let _ = write!(out, "{}", scores.len());
    for &s in scores {
        out.push(b' ');
        write_f64(out, s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        assert_eq!(
            Request::parse("PAIR 3 77").unwrap(),
            Request::Pair { u: 3, v: 77 }
        );
        assert_eq!(
            Request::parse("SOURCE 9").unwrap(),
            Request::Source { u: 9 }
        );
        assert_eq!(
            Request::parse("TOPK 5 10").unwrap(),
            Request::TopK { u: 5, k: 10 }
        );
        assert_eq!(
            Request::parse("BATCH 1,2 3,4").unwrap(),
            Request::Batch {
                pairs: vec![(1, 2), (3, 4)]
            }
        );
        assert_eq!(Request::parse("STATS").unwrap(), Request::Stats);
        assert_eq!(Request::parse("METRICS").unwrap(), Request::Metrics);
        assert_eq!(Request::parse("SLOWLOG").unwrap(), Request::Slowlog);
        assert_eq!(
            Request::parse("TRACE 17 4096").unwrap(),
            Request::Trace {
                from: 17,
                max: 4096
            }
        );
        assert_eq!(
            Request::parse("RELOAD").unwrap(),
            Request::Reload { force: false }
        );
        assert_eq!(
            Request::parse("RELOAD FORCE").unwrap(),
            Request::Reload { force: true }
        );
        assert_eq!(Request::parse("PING").unwrap(), Request::Ping);
        assert_eq!(Request::parse("QUIT").unwrap(), Request::Quit);
        assert_eq!(Request::parse("SHUTDOWN").unwrap(), Request::Shutdown);
    }

    #[test]
    fn encode_parse_roundtrip() {
        for req in [
            Request::Pair {
                u: 0,
                v: 4_000_000_000,
            },
            Request::Source { u: 17 },
            Request::TopK { u: 2, k: 50 },
            Request::Batch {
                pairs: vec![(9, 8), (7, 6), (5, 5)],
            },
            Request::Stats,
            Request::Metrics,
            Request::Slowlog,
            Request::Trace { from: 0, max: 256 },
            Request::Reload { force: false },
            Request::Reload { force: true },
            Request::Ping,
            Request::Quit,
            Request::Shutdown,
        ] {
            assert_eq!(Request::parse(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "PAIR",
            "PAIR 1",
            "PAIR 1 2 3",
            "PAIR x y",
            "SOURCE",
            "TOPK 1",
            "TOPK 1 x",
            "BATCH",
            "BATCH 1 2",
            "BATCH 1,",
            "FROBNICATE 1",
            "STATS now",
            "METRICS json",
            "SLOWLOG 5",
            "TRACE",
            "TRACE 1",
            "TRACE x 5",
            "TRACE 1 y",
            "TRACE 1 2 3",
            "RELOAD now",
            "RELOAD FORCE now",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn score_text_roundtrips_bit_identically() {
        let mut line = Vec::new();
        let scores = [0.1 + 0.2, 1.0 / 3.0, f64::MIN_POSITIVE, 0.0, 1.0];
        write_scores(&mut line, &scores);
        let line = String::from_utf8(line).unwrap();
        let mut toks = line.split_ascii_whitespace();
        assert_eq!(toks.next().unwrap(), "5");
        for want in scores {
            let tok = toks.next().unwrap();
            assert_eq!(tok, format!("{want}"));
            let got: f64 = tok.parse().unwrap();
            assert_eq!(got.to_bits(), want.to_bits());
        }
        assert_eq!(toks.next(), None);
    }
}
