//! The wire layer timed in isolation.
//!
//! For each quorum-store message kind the TCP workloads send, the
//! benchmark times `frame::encode_frame` and `wire::from_bytes` on a
//! representative message in a tight loop and reports the median
//! nanoseconds per call over several batches, plus the frame size.
//! [`per_op_us`] turns these into the codec's share of an operation
//! from how many frames of each kind one operation encodes and decodes.

use std::hint::black_box;
use std::time::Instant;

use icg_net::frame::encode_frame;
use icg_net::wire::from_bytes;
use icg_net::NetMsg;
use quorumstore::{Key, Msg, OpId, Phase, ReadKind, Value, Version, Versioned};
use simnet::NodeId;

use crate::stats::median_f64;
use crate::trace::Tracer;

/// Message kinds, in the order metrics are reported.
pub const KINDS: [&str; 8] = [
    "client_read",
    "client_write",
    "peer_read",
    "peer_read_resp",
    "peer_write",
    "read_reply",
    "read_confirm",
    "write_reply",
];

const ENCODE_SPANS: [&str; 8] = [
    "wire.encode.client_read",
    "wire.encode.client_write",
    "wire.encode.peer_read",
    "wire.encode.peer_read_resp",
    "wire.encode.peer_write",
    "wire.encode.read_reply",
    "wire.encode.read_confirm",
    "wire.encode.write_reply",
];

const DECODE_SPANS: [&str; 8] = [
    "wire.decode.client_read",
    "wire.decode.client_write",
    "wire.decode.peer_read",
    "wire.decode.peer_read_resp",
    "wire.decode.peer_write",
    "wire.decode.read_reply",
    "wire.decode.read_confirm",
    "wire.decode.write_reply",
];

/// Isolated cost of one message kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    /// Median ns per `encode_frame`.
    pub encode_ns: f64,
    /// Median ns per `from_bytes` of the frame body.
    pub decode_ns: f64,
    /// Frame size, header included.
    pub frame_bytes: usize,
}

fn sample_messages(confirm: bool) -> [Msg; 8] {
    let op = OpId {
        client: NodeId(1 << 20),
        seq: 123_456,
    };
    let key = Key::plain(4_242);
    let data = Versioned {
        value: Value::Opaque(0x0400_1234),
        version: Version {
            ts: 1_760_000_000_000_000_000,
            writer: 0,
        },
    };
    [
        Msg::ClientRead {
            op,
            key,
            kind: ReadKind::Icg { r: 2, confirm },
        },
        Msg::ClientWrite {
            op,
            key,
            value: data.value.clone(),
            w: 1,
        },
        Msg::PeerRead { op, key },
        Msg::PeerReadResp {
            op,
            data: data.clone(),
        },
        Msg::PeerWrite {
            key,
            data: data.clone(),
            ack_op: None,
        },
        Msg::ReadReply {
            op,
            phase: Phase::Final,
            data,
        },
        Msg::ReadConfirm {
            op,
            version: Version {
                ts: 1_760_000_000_000_000_000,
                writer: 0,
            },
        },
        Msg::WriteReply { op },
    ]
}

/// Times every kind: `batches` batches of `iters` calls each. Records
/// one span per batch when `tracer` is given. Errors if a frame does
/// not decode back to the message it was made from.
pub fn measure(
    confirm: bool,
    iters: u32,
    batches: usize,
    tracer: Option<&Tracer>,
) -> Result<[Cost; 8], String> {
    let mut out = [Cost::default(); 8];
    let mut frame = Vec::with_capacity(256);
    for (i, msg) in sample_messages(confirm).into_iter().enumerate() {
        let net = NetMsg::Store(msg);
        encode_frame(&net, &mut frame);
        let decoded: NetMsg = from_bytes(&frame[5..]).map_err(|e| format!("wire: {e}"))?;
        if decoded != net {
            return Err(format!("wire: {} did not round-trip", KINDS[i]));
        }
        out[i].frame_bytes = frame.len();
        let mut enc = Vec::with_capacity(batches);
        let mut dec = Vec::with_capacity(batches);
        for _ in 0..batches {
            let start = tracer.map_or(0, |t| t.now());
            let t0 = Instant::now();
            for _ in 0..iters {
                encode_frame(black_box(&net), &mut frame);
                black_box(&frame);
            }
            enc.push(t0.elapsed().as_nanos() as f64 / f64::from(iters));
            if let Some(t) = tracer {
                t.record(0, ENCODE_SPANS[i], start, t.now());
            }
            let start = tracer.map_or(0, |t| t.now());
            let t0 = Instant::now();
            for _ in 0..iters {
                let m: Result<NetMsg, _> = from_bytes(black_box(&frame[5..]));
                black_box(m.is_ok());
            }
            dec.push(t0.elapsed().as_nanos() as f64 / f64::from(iters));
            if let Some(t) = tracer {
                t.record(0, DECODE_SPANS[i], start, t.now());
            }
        }
        out[i].encode_ns = median_f64(&enc).unwrap_or(0.0);
        out[i].decode_ns = median_f64(&dec).unwrap_or(0.0);
    }
    Ok(out)
}

/// Frames encoded and decoded per operation, by kind, on a three-replica
/// set with R = 2 and W = 1. A coordinator encodes a peer message once
/// for all links; each peer decodes its copy, and the coordinator
/// decodes both peer answers (the late one too).
///
/// `reads`/`writes` are completed operations; `confirmed` is how many
/// reads ended in a `ReadConfirm` instead of a final `ReadReply`.
pub fn frames_per_op(reads: f64, writes: f64, confirmed: f64) -> [(f64, f64); 8] {
    let ops = (reads + writes).max(1.0);
    let (r, w, c) = (reads / ops, writes / ops, confirmed / ops);
    [
        (r, r),                     // client_read
        (w, w),                     // client_write
        (r, 2.0 * r),               // peer_read
        (2.0 * r, 2.0 * r),         // peer_read_resp
        (w, 2.0 * w),               // peer_write
        (2.0 * r - c, 2.0 * r - c), // read_reply: preliminary + final
        (c, c),                     // read_confirm
        (w, w),                     // write_reply
    ]
}

/// The codec's CPU per operation in µs, from isolated costs and frame counts.
pub fn per_op_us(costs: &[Cost; 8], frames: &[(f64, f64); 8]) -> f64 {
    costs
        .iter()
        .zip(frames)
        .map(|(c, (enc, dec))| enc * c.encode_ns + dec * c.decode_ns)
        .sum::<f64>()
        / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_counts_follow_the_protocol() {
        // All reads, none confirmed: 1 client read, 2 read replies, one
        // peer read encoded once and decoded twice, two answers.
        let f = frames_per_op(10.0, 0.0, 0.0);
        assert_eq!(f[0], (1.0, 1.0));
        assert_eq!(f[2], (1.0, 2.0));
        assert_eq!(f[3], (2.0, 2.0));
        assert_eq!(f[5], (2.0, 2.0));
        assert_eq!(f[6], (0.0, 0.0));
        // All writes.
        let f = frames_per_op(0.0, 4.0, 0.0);
        assert_eq!((f[1], f[4], f[7]), ((1.0, 1.0), (1.0, 2.0), (1.0, 1.0)));
        // Confirmed reads swap a final reply for a confirmation.
        let f = frames_per_op(2.0, 0.0, 1.0);
        assert_eq!((f[5], f[6]), ((1.5, 1.5), (0.5, 0.5)));
    }

    #[test]
    fn per_op_sums_weighted_costs() {
        let mut costs = [Cost::default(); 8];
        costs[0] = Cost {
            encode_ns: 100.0,
            decode_ns: 300.0,
            frame_bytes: 0,
        };
        let mut frames = [(0.0, 0.0); 8];
        frames[0] = (2.0, 1.0);
        assert_eq!(per_op_us(&costs, &frames), 0.5);
    }

    #[test]
    fn every_kind_round_trips() {
        let costs = measure(true, 10, 1, None).expect("round trip");
        assert!(costs.iter().all(|c| c.frame_bytes > 5));
    }
}
