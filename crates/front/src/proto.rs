//! The wire protocol: a small, length-framed binary encoding of serving
//! requests and responses.
//!
//! One frame is a little-endian `u32` payload length followed by the
//! payload; a payload is an opcode byte followed by opcode-specific
//! fields. Feature vectors reuse the storage-tier tuple encoding
//! ([`hazy_linalg::encode_fvec`]), so a front-end `TRAIN` frame carries
//! exactly the bytes the scratch table would store.
//!
//! Decoding is total: any malformed, truncated, or over-long input yields
//! `None` (the TCP adapter then drops the connection) — never a panic.
//! Round-trip identity is property-tested in this module.

use hazy_core::Entity;
use hazy_learn::{Label, TrainingExample};
use hazy_linalg::{decode_fvec, encode_fvec, wire, FeatureVec};

/// Hard ceiling on one frame's payload, defending the server against a
/// garbage length prefix (a connection streaming noise must not make the
/// poll loop allocate gigabytes before the CRC-less payload fails to
/// decode).
pub const MAX_FRAME: usize = 16 << 20;

/// A serving request, as submitted by in-process clients and decoded from
/// TCP frames.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// `Single Entity` read: the current label of entity `id`.
    Classify {
        /// Entity key.
        id: u64,
    },
    /// `All Members` count of positively classified entities.
    CountPositive,
    /// Ranked read: top `k` entities by margin.
    TopK {
        /// Result size bound.
        k: u32,
    },
    /// Training examples to fold into the model — the write lane coalesces
    /// consecutive `Train` requests into one `update_batch` maintenance
    /// round.
    Train {
        /// The examples, in arrival order.
        batch: Vec<TrainingExample>,
    },
    /// New-entity arrival (classified on insert); a live id is replaced.
    Insert {
        /// Entity key.
        id: u64,
        /// Feature vector.
        f: FeatureVec,
    },
    /// Entity retraction.
    Remove {
        /// Entity key.
        id: u64,
    },
    /// Observability scrape: a Prometheus-style text dump of every
    /// registered metric. Answered at admission, bypassing both queues,
    /// so the serving plane stays scrapeable even when saturated.
    MetricsDump,
}

impl Request {
    /// `true` for requests the read lane serves from pinned epochs.
    pub fn is_read(&self) -> bool {
        matches!(self, Request::Classify { .. } | Request::CountPositive | Request::TopK { .. })
    }
}

/// A serving response. Every submitted request gets exactly one.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Classify`] (`None`: no such entity).
    Label(Option<Label>),
    /// Answer to [`Request::CountPositive`].
    Count(u64),
    /// Answer to [`Request::TopK`].
    Ranked(Vec<(u64, f64)>),
    /// A write was applied; `applied` counts the training examples (or 1
    /// for an insert, 1/0 for a remove that did/did not find its entity).
    Done {
        /// Operations applied.
        applied: u64,
    },
    /// Admission control shed the request: the bounded queue was full.
    /// The request was **not** executed; retry after the hinted delay.
    Rejected {
        /// Client backoff hint in milliseconds.
        retry_after_ms: u32,
    },
    /// The serve path failed structurally (e.g. a panic recovered inside
    /// the batcher). The request may not have been applied; the front end
    /// keeps serving.
    Error(String),
    /// Answer to [`Request::MetricsDump`]: Prometheus-style text.
    Metrics(String),
}

const REQ_CLASSIFY: u8 = 1;
const REQ_COUNT: u8 = 2;
const REQ_TOP_K: u8 = 3;
const REQ_TRAIN: u8 = 4;
const REQ_INSERT: u8 = 5;
const REQ_REMOVE: u8 = 6;
const REQ_METRICS: u8 = 7;

const RESP_LABEL: u8 = 1;
const RESP_COUNT: u8 = 2;
const RESP_RANKED: u8 = 3;
const RESP_DONE: u8 = 4;
const RESP_REJECTED: u8 = 5;
const RESP_ERROR: u8 = 6;
const RESP_METRICS: u8 = 7;

/// Encodes one request payload (no frame header).
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    match req {
        Request::Classify { id } => {
            out.push(REQ_CLASSIFY);
            out.extend_from_slice(&id.to_le_bytes());
        }
        Request::CountPositive => out.push(REQ_COUNT),
        Request::TopK { k } => {
            out.push(REQ_TOP_K);
            out.extend_from_slice(&k.to_le_bytes());
        }
        Request::Train { batch } => {
            out.push(REQ_TRAIN);
            out.extend_from_slice(&(batch.len() as u32).to_le_bytes());
            for ex in batch {
                out.extend_from_slice(&ex.id.to_le_bytes());
                out.push(ex.y as u8);
                encode_fvec(&ex.f, out);
            }
        }
        Request::Insert { id, f } => {
            out.push(REQ_INSERT);
            out.extend_from_slice(&id.to_le_bytes());
            encode_fvec(f, out);
        }
        Request::Remove { id } => {
            out.push(REQ_REMOVE);
            out.extend_from_slice(&id.to_le_bytes());
        }
        Request::MetricsDump => out.push(REQ_METRICS),
    }
}

/// Decodes one request payload; `None` on any malformation.
pub fn decode_request(b: &mut &[u8]) -> Option<Request> {
    match wire::take_u8(b)? {
        REQ_CLASSIFY => Some(Request::Classify { id: wire::take_u64(b)? }),
        REQ_COUNT => Some(Request::CountPositive),
        REQ_TOP_K => Some(Request::TopK { k: wire::take_u32(b)? }),
        REQ_TRAIN => {
            // an example is at least id(8) + label(1) + a dense fvec header(5)
            let n = wire::take_count_u32(b, 14)?;
            let mut batch = Vec::with_capacity(n);
            for _ in 0..n {
                let id = wire::take_u64(b)?;
                let y = wire::take_u8(b)? as i8;
                if y != 1 && y != -1 {
                    return None;
                }
                let f = decode_fvec(b)?;
                batch.push(TrainingExample::new(id, f, y));
            }
            Some(Request::Train { batch })
        }
        REQ_INSERT => {
            let id = wire::take_u64(b)?;
            let f = decode_fvec(b)?;
            Some(Request::Insert { id, f })
        }
        REQ_REMOVE => Some(Request::Remove { id: wire::take_u64(b)? }),
        REQ_METRICS => Some(Request::MetricsDump),
        _ => None,
    }
}

/// Encodes one response payload (no frame header).
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    match resp {
        Response::Label(l) => {
            out.push(RESP_LABEL);
            match l {
                Some(y) => {
                    out.push(1);
                    out.push(*y as u8);
                }
                None => out.push(0),
            }
        }
        Response::Count(c) => {
            out.push(RESP_COUNT);
            out.extend_from_slice(&c.to_le_bytes());
        }
        Response::Ranked(rows) => {
            out.push(RESP_RANKED);
            out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
            for (id, margin) in rows {
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&margin.to_le_bytes());
            }
        }
        Response::Done { applied } => {
            out.push(RESP_DONE);
            out.extend_from_slice(&applied.to_le_bytes());
        }
        Response::Rejected { retry_after_ms } => {
            out.push(RESP_REJECTED);
            out.extend_from_slice(&retry_after_ms.to_le_bytes());
        }
        Response::Error(msg) => {
            out.push(RESP_ERROR);
            let bytes = msg.as_bytes();
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        Response::Metrics(text) => {
            out.push(RESP_METRICS);
            let bytes = text.as_bytes();
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
    }
}

/// Decodes one response payload; `None` on any malformation.
pub fn decode_response(b: &mut &[u8]) -> Option<Response> {
    match wire::take_u8(b)? {
        RESP_LABEL => match wire::take_u8(b)? {
            0 => Some(Response::Label(None)),
            1 => Some(Response::Label(Some(wire::take_u8(b)? as i8))),
            _ => None,
        },
        RESP_COUNT => Some(Response::Count(wire::take_u64(b)?)),
        RESP_RANKED => {
            let n = wire::take_count_u32(b, 16)?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push((wire::take_u64(b)?, wire::take_f64(b)?));
            }
            Some(Response::Ranked(rows))
        }
        RESP_DONE => Some(Response::Done { applied: wire::take_u64(b)? }),
        RESP_REJECTED => Some(Response::Rejected { retry_after_ms: wire::take_u32(b)? }),
        RESP_ERROR => {
            let len = wire::take_count_u32(b, 1)?;
            let bytes = wire::take_bytes(b, len)?;
            Some(Response::Error(String::from_utf8(bytes.to_vec()).ok()?))
        }
        RESP_METRICS => {
            let len = wire::take_count_u32(b, 1)?;
            let bytes = wire::take_bytes(b, len)?;
            Some(Response::Metrics(String::from_utf8(bytes.to_vec()).ok()?))
        }
        _ => None,
    }
}

/// Appends `payload` as one frame (length prefix + bytes) to `out`.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    debug_assert!(payload.len() <= MAX_FRAME);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Frames decode incrementally off a connection buffer: `None` until a
/// whole frame is buffered, `Some(Err(()))` when the length prefix is
/// over [`MAX_FRAME`] (drop the connection), `Some(Ok(...))` with the
/// payload range otherwise. The caller consumes `4 + len` bytes.
pub fn peek_frame(buf: &[u8]) -> Option<Result<std::ops::Range<usize>, ()>> {
    if buf.len() < 4 {
        return None;
    }
    let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME {
        return Some(Err(()));
    }
    if buf.len() < 4 + len {
        return None;
    }
    Some(Ok(4..4 + len))
}

/// Builds an [`Entity`] from an [`Request::Insert`]'s fields (the engine
/// type the backend speaks).
pub fn insert_entity(id: u64, f: FeatureVec) -> Entity {
    Entity::new(id, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_fvec() -> impl Strategy<Value = FeatureVec> {
        prop_oneof![
            proptest::collection::vec(any::<f32>().prop_map(|x| x % 100.0), 1..8)
                .prop_map(FeatureVec::dense),
            proptest::collection::vec((0u32..64, any::<f32>().prop_map(|x| x % 100.0)), 0..6)
                .prop_map(|pairs| FeatureVec::sparse(64, pairs)),
        ]
    }

    fn arb_request() -> impl Strategy<Value = Request> {
        prop_oneof![
            any::<u64>().prop_map(|id| Request::Classify { id }),
            Just(Request::CountPositive),
            any::<u32>().prop_map(|k| Request::TopK { k }),
            proptest::collection::vec((any::<u64>(), arb_fvec(), any::<bool>()), 0..4).prop_map(
                |rows| Request::Train {
                    batch: rows
                        .into_iter()
                        .map(|(id, f, y)| TrainingExample::new(id, f, if y { 1 } else { -1 }))
                        .collect(),
                }
            ),
            (any::<u64>(), arb_fvec()).prop_map(|(id, f)| Request::Insert { id, f }),
            any::<u64>().prop_map(|id| Request::Remove { id }),
            Just(Request::MetricsDump),
        ]
    }

    fn arb_response() -> impl Strategy<Value = Response> {
        prop_oneof![
            prop_oneof![Just(None), Just(Some(1i8)), Just(Some(-1i8))].prop_map(Response::Label),
            any::<u64>().prop_map(Response::Count),
            proptest::collection::vec((any::<u64>(), any::<f64>().prop_map(|x| x % 1e9)), 0..5)
                .prop_map(Response::Ranked),
            any::<u64>().prop_map(|applied| Response::Done { applied }),
            any::<u32>().prop_map(|retry_after_ms| Response::Rejected { retry_after_ms }),
            "[a-z ]{0,12}".prop_map(Response::Error),
            "[a-z_ \\n]{0,24}".prop_map(Response::Metrics),
        ]
    }

    proptest! {
        // round trips are checked by re-encoding: bitwise fidelity, which
        // (unlike `==`) also holds for NaN payloads in feature vectors
        #[test]
        fn request_round_trips(req in arb_request()) {
            let mut buf = Vec::new();
            encode_request(&req, &mut buf);
            let mut b = buf.as_slice();
            let decoded = decode_request(&mut b).expect("well-formed request decodes");
            prop_assert!(b.is_empty(), "no trailing bytes");
            let mut buf2 = Vec::new();
            encode_request(&decoded, &mut buf2);
            prop_assert_eq!(buf, buf2);
        }

        #[test]
        fn response_round_trips(resp in arb_response()) {
            let mut buf = Vec::new();
            encode_response(&resp, &mut buf);
            let mut b = buf.as_slice();
            let decoded = decode_response(&mut b).expect("well-formed response decodes");
            prop_assert!(b.is_empty(), "no trailing bytes");
            let mut buf2 = Vec::new();
            encode_response(&decoded, &mut buf2);
            prop_assert_eq!(buf, buf2);
        }

        #[test]
        fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let mut b = bytes.as_slice();
            let _ = decode_request(&mut b);
            let mut b = bytes.as_slice();
            let _ = decode_response(&mut b);
        }
    }

    /// Counts and lengths claiming more than the payload holds are
    /// malformed, whatever the item: a `TRAIN` batch, ranked rows, or the
    /// bytes of an error or metrics text.
    #[test]
    fn forged_counts_are_malformed() {
        let forged = |op: u8| {
            let mut b = vec![op];
            b.extend_from_slice(&u32::MAX.to_le_bytes());
            b
        };
        assert_eq!(decode_request(&mut &forged(REQ_TRAIN)[..]), None);
        for op in [RESP_RANKED, RESP_ERROR, RESP_METRICS] {
            assert_eq!(decode_response(&mut &forged(op)[..]), None, "response op {op}");
        }
    }

    #[test]
    fn frames_decode_incrementally() {
        let mut wire_bytes = Vec::new();
        let mut payload = Vec::new();
        encode_request(&Request::Classify { id: 7 }, &mut payload);
        write_frame(&mut wire_bytes, &payload);
        // no prefix yet
        assert_eq!(peek_frame(&wire_bytes[..3]), None);
        // prefix but truncated payload
        assert_eq!(peek_frame(&wire_bytes[..4]), None);
        let range = peek_frame(&wire_bytes).expect("whole frame").expect("sane length");
        let mut b = &wire_bytes[range];
        assert_eq!(decode_request(&mut b), Some(Request::Classify { id: 7 }));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert_eq!(peek_frame(&buf), Some(Err(())));
    }
}
