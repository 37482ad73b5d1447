//! The generation `MANIFEST`: a small, checksummed text record of what a
//! generation directory contains.
//!
//! One manifest accompanies every published index generation (see the
//! [`crate::lifecycle`] module docs for the directory layout). It records
//! enough to *validate* a generation without opening the index — format
//! version, build configuration (ε, c, seed), the source-graph
//! fingerprint `(n, m)`, and the byte size plus FNV-1a checksum of each
//! payload file — and it is itself checksummed, so a torn or bit-rotted
//! manifest is detected before anything trusts it.
//!
//! ## Wire format
//!
//! UTF-8 text, one `key value` pair per line:
//!
//! ```text
//! SLNGMANIFEST1
//! format SLNGIDX1      (or SLNGIDX2 / SLNGIDX3)
//! nodes 2000
//! edges 7988
//! epsilon 0.1
//! c 0.6
//! seed 3
//! index_bytes 1404548
//! index_fnv1a 4b1f0a6cc41d9f03
//! graph_bytes 64072          (only when a graph snapshot is co-located)
//! graph_fnv1a 91cd24f07a7e11a2
//! checksum 7a31cc0f39b05e84
//! ```
//!
//! The final `checksum` line is the FNV-1a hash of every preceding byte
//! of the file; floats are written with Rust's shortest round-trip `{}`
//! formatting, so parsing recovers the bit-identical value. Unknown keys
//! are rejected — a manifest is tiny and fully owned by this module, so
//! leniency would only mask corruption.

use crate::error::SlingError;
use crate::format::FormatVersion;

/// Magic first line of a manifest file.
const MAGIC: &str = "SLNGMANIFEST1";

/// File name of the manifest inside a generation directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Incremental 64-bit FNV-1a state — the checksum used for manifests
/// and generation payload files. Not cryptographic; it detects the
/// corruption classes that matter operationally (truncation, torn
/// writes, bit rot), costs one pass, and needs no dependency. The
/// incremental form lets payload files be digested through a fixed
/// buffer instead of reading them whole.
#[derive(Clone, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// Fresh hasher (FNV-1a offset basis).
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `bytes` into the state.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot 64-bit FNV-1a over a byte slice (see [`Fnv1a`]).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// Size and checksum of one payload file recorded in a manifest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileDigest {
    /// File length in bytes.
    pub bytes: u64,
    /// FNV-1a hash of the file contents.
    pub fnv1a: u64,
}

impl FileDigest {
    /// Digest of an in-memory byte image.
    pub fn of(bytes: &[u8]) -> FileDigest {
        FileDigest {
            bytes: bytes.len() as u64,
            fnv1a: fnv1a(bytes),
        }
    }
}

/// Parsed, checksum-verified generation manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// On-disk format generation of the index file.
    pub format: FormatVersion,
    /// Source-graph fingerprint: node count.
    pub num_nodes: usize,
    /// Source-graph fingerprint: edge count.
    pub num_edges: usize,
    /// Additive error budget the index was built with.
    pub epsilon: f64,
    /// SimRank decay constant the index was built with.
    pub c: f64,
    /// Build seed (generations built from the same graph and seed are
    /// byte-identical).
    pub seed: u64,
    /// Digest of `index.slng`.
    pub index: FileDigest,
    /// Digest of the co-located `graph.bin` snapshot, when one exists.
    pub graph: Option<FileDigest>,
}

fn corrupt(what: impl Into<String>) -> SlingError {
    SlingError::CorruptIndex(format!("manifest: {}", what.into()))
}

impl Manifest {
    /// Serialize to the checksummed text format.
    pub fn encode(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{MAGIC}");
        let _ = writeln!(out, "format {}", self.format);
        let _ = writeln!(out, "nodes {}", self.num_nodes);
        let _ = writeln!(out, "edges {}", self.num_edges);
        let _ = writeln!(out, "epsilon {}", self.epsilon);
        let _ = writeln!(out, "c {}", self.c);
        let _ = writeln!(out, "seed {}", self.seed);
        let _ = writeln!(out, "index_bytes {}", self.index.bytes);
        let _ = writeln!(out, "index_fnv1a {:016x}", self.index.fnv1a);
        if let Some(graph) = &self.graph {
            let _ = writeln!(out, "graph_bytes {}", graph.bytes);
            let _ = writeln!(out, "graph_fnv1a {:016x}", graph.fnv1a);
        }
        let _ = writeln!(out, "checksum {:016x}", fnv1a(out.as_bytes()));
        out
    }

    /// Parse and checksum-verify a manifest image.
    pub fn parse(text: &str) -> Result<Manifest, SlingError> {
        // The checksum line covers every byte before it, including the
        // newline that ends the last data line.
        let body_end = text
            .rfind("checksum ")
            .ok_or_else(|| corrupt("missing checksum line"))?;
        let claimed = text[body_end..]
            .trim_end()
            .strip_prefix("checksum ")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| corrupt("malformed checksum line"))?;
        let actual = fnv1a(&text.as_bytes()[..body_end]);
        if claimed != actual {
            return Err(corrupt(format!(
                "checksum mismatch: recorded {claimed:016x}, computed {actual:016x}"
            )));
        }

        let mut lines = text[..body_end].lines();
        if lines.next() != Some(MAGIC) {
            return Err(corrupt("bad magic"));
        }
        let mut format = None;
        let mut nodes = None;
        let mut edges = None;
        let mut epsilon = None;
        let mut c = None;
        let mut seed = None;
        let mut index_bytes = None;
        let mut index_fnv = None;
        let mut graph_bytes = None;
        let mut graph_fnv = None;
        for line in lines {
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| corrupt(format!("malformed line {line:?}")))?;
            let dup = match key {
                "format" => format
                    .replace(match value {
                        "SLNGIDX1" => FormatVersion::V1,
                        "SLNGIDX2" => FormatVersion::V2,
                        "SLNGIDX3" => FormatVersion::V3,
                        other => return Err(corrupt(format!("unknown format {other:?}"))),
                    })
                    .is_some(),
                "nodes" => nodes.replace(parse_num::<usize>(key, value)?).is_some(),
                "edges" => edges.replace(parse_num::<usize>(key, value)?).is_some(),
                "epsilon" => epsilon.replace(parse_num::<f64>(key, value)?).is_some(),
                "c" => c.replace(parse_num::<f64>(key, value)?).is_some(),
                "seed" => seed.replace(parse_num::<u64>(key, value)?).is_some(),
                "index_bytes" => index_bytes.replace(parse_num::<u64>(key, value)?).is_some(),
                "index_fnv1a" => index_fnv.replace(parse_hex(key, value)?).is_some(),
                "graph_bytes" => graph_bytes.replace(parse_num::<u64>(key, value)?).is_some(),
                "graph_fnv1a" => graph_fnv.replace(parse_hex(key, value)?).is_some(),
                other => return Err(corrupt(format!("unknown key {other:?}"))),
            };
            if dup {
                return Err(corrupt(format!("duplicate key {key:?}")));
            }
        }
        let graph = match (graph_bytes, graph_fnv) {
            (None, None) => None,
            (Some(bytes), Some(fnv1a)) => Some(FileDigest { bytes, fnv1a }),
            _ => return Err(corrupt("graph_bytes and graph_fnv1a must appear together")),
        };
        let missing = |what: &str| corrupt(format!("missing key {what:?}"));
        Ok(Manifest {
            format: format.ok_or_else(|| missing("format"))?,
            num_nodes: nodes.ok_or_else(|| missing("nodes"))?,
            num_edges: edges.ok_or_else(|| missing("edges"))?,
            epsilon: epsilon.ok_or_else(|| missing("epsilon"))?,
            c: c.ok_or_else(|| missing("c"))?,
            seed: seed.ok_or_else(|| missing("seed"))?,
            index: FileDigest {
                bytes: index_bytes.ok_or_else(|| missing("index_bytes"))?,
                fnv1a: index_fnv.ok_or_else(|| missing("index_fnv1a"))?,
            },
            graph,
        })
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, SlingError> {
    value
        .parse()
        .map_err(|_| corrupt(format!("cannot parse {key} value {value:?}")))
}

fn parse_hex(key: &str, value: &str) -> Result<u64, SlingError> {
    u64::from_str_radix(value, 16)
        .map_err(|_| corrupt(format!("cannot parse {key} value {value:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(graph: bool) -> Manifest {
        Manifest {
            format: FormatVersion::V2,
            num_nodes: 2000,
            num_edges: 7988,
            epsilon: 0.1,
            c: 0.6,
            seed: 3,
            index: FileDigest {
                bytes: 1_404_548,
                fnv1a: 0x4b1f_0a6c_c41d_9f03,
            },
            graph: graph.then_some(FileDigest {
                bytes: 64_072,
                fnv1a: 0x91cd_24f0_7a7e_11a2,
            }),
        }
    }

    #[test]
    fn round_trips_with_and_without_graph_snapshot() {
        for graph in [false, true] {
            for format in [FormatVersion::V1, FormatVersion::V2, FormatVersion::V3] {
                let m = Manifest {
                    format,
                    ..sample(graph)
                };
                let text = m.encode();
                assert_eq!(Manifest::parse(&text).unwrap(), m);
            }
        }
    }

    #[test]
    fn floats_round_trip_bit_identically() {
        let mut m = sample(false);
        m.epsilon = 0.1 + 0.2; // not representable as a short decimal
        m.c = 1.0 / 3.0;
        let back = Manifest::parse(&m.encode()).unwrap();
        assert_eq!(back.epsilon.to_bits(), m.epsilon.to_bits());
        assert_eq!(back.c.to_bits(), m.c.to_bits());
    }

    #[test]
    fn detects_any_single_byte_flip() {
        let text = sample(true).encode();
        let bytes = text.as_bytes();
        // Every byte except the final newline (whitespace after the
        // checksum hex carries no information, so a flip there is
        // harmless by construction).
        for i in 0..bytes.len() - 1 {
            let mut bad = bytes.to_vec();
            bad[i] ^= 0x01;
            let Ok(s) = std::str::from_utf8(&bad) else {
                continue;
            };
            assert!(
                Manifest::parse(s).is_err(),
                "flip at byte {i} went undetected: {s:?}"
            );
        }
    }

    #[test]
    fn rejects_truncation_and_garbage() {
        let text = sample(false).encode();
        for cut in [0, 5, text.len() / 2, text.len() - 2] {
            assert!(Manifest::parse(&text[..cut]).is_err(), "cut {cut}");
        }
        assert!(Manifest::parse("").is_err());
        assert!(Manifest::parse("not a manifest\n").is_err());
        // Unknown key, with a recomputed checksum so only the key is bad.
        let mut forged = String::from("SLNGMANIFEST1\nfrobnicate 1\n");
        forged.push_str(&format!("checksum {:016x}\n", fnv1a(forged.as_bytes())));
        let err = Manifest::parse(&forged).unwrap_err();
        assert!(err.to_string().contains("unknown key"), "{err}");
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
