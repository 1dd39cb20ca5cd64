//! Wire replay: time `lucky-wire`'s packet codec on the message shapes a
//! workload sends, outside the socket path.
//!
//! One packet per protocol message, as the router frames them with
//! batching off: PW, PW-ack, READ, READ-ack and W, carrying the
//! workload's value size. READ-ack carries the value four times (pw, w,
//! vw and the frozen slot), so it dominates at 1 KiB.

use bytes::Bytes;
use lucky_types::{
    FrozenSlot, Message, ProcessId, PwAckMsg, PwMsg, ReadAckMsg, ReadMsg, ReadSeq, ReaderId,
    RegisterId, Seq, ServerId, Tag, TsVal, Value, WriteMsg,
};
use lucky_wire::{decode_frame, decode_packet, encode_packet, PacketPart};
use std::hint::black_box;
use std::time::Instant;

/// Mean nanoseconds per packet over the shape mix.
#[derive(Clone, Copy, Debug)]
pub struct WireTimings {
    pub encode_ns: f64,
    pub decode_ns: f64,
}

const ITERS: usize = 400;
const BATCHES: usize = 9;

/// The packets one write and one read put on the wire, for `value`.
pub fn shapes(value: Value) -> Vec<PacketPart> {
    let reg = RegisterId(1);
    let writer = ProcessId::writer(reg);
    let reader = ProcessId::Reader(ReaderId(2));
    let server = ProcessId::Server(ServerId(0));
    let ts = Seq(1000);
    let pw = TsVal::new(ts, value.clone());
    let w = TsVal::new(Seq(999), value);
    let tsr = ReadSeq(500);
    vec![
        (
            writer,
            server,
            Message::Pw(PwMsg { reg, ts, pw: pw.clone(), w: w.clone(), frozen: vec![] }),
        ),
        (server, writer, Message::PwAck(PwAckMsg { reg, ts, newread: vec![] })),
        (reader, server, Message::Read(ReadMsg { reg, tsr, rnd: 1 })),
        (
            server,
            reader,
            Message::ReadAck(ReadAckMsg {
                reg,
                tsr,
                rnd: 1,
                pw: pw.clone(),
                w,
                vw: Some(pw.clone()),
                frozen: FrozenSlot { pw: pw.clone(), tsr },
            }),
        ),
        (
            writer,
            server,
            Message::Write(WriteMsg { reg, round: 2, tag: Tag::Write(ts), c: pw, frozen: vec![] }),
        ),
    ]
}

/// Time encode and decode of every shape; each batch runs every shape
/// `ITERS` times, and the median batch is reported. Returns `Err` if a
/// packet does not decode back to what was encoded.
pub fn replay(value: Value) -> Result<WireTimings, String> {
    let parts = shapes(value);
    let frames: Vec<Bytes> =
        parts.iter().map(|p| Bytes::from(encode_packet(std::slice::from_ref(p)))).collect();
    for (part, frame) in parts.iter().zip(&frames) {
        let decoded = decode(frame).map_err(|e| format!("wire replay: {e}"))?;
        if decoded.as_slice() != std::slice::from_ref(part) {
            return Err(format!("wire replay: {:?} did not round-trip", part.2));
        }
    }
    let per_packet = (ITERS * parts.len()) as f64;
    let mut enc = Vec::with_capacity(BATCHES);
    let mut dec = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..ITERS {
            for p in &parts {
                black_box(encode_packet(std::slice::from_ref(black_box(p))));
            }
        }
        enc.push(t.elapsed().as_nanos() as f64 / per_packet);
        let t = Instant::now();
        for _ in 0..ITERS {
            for f in &frames {
                let _ = black_box(decode(black_box(f)));
            }
        }
        dec.push(t.elapsed().as_nanos() as f64 / per_packet);
    }
    Ok(WireTimings {
        encode_ns: crate::stats::median(&mut enc),
        decode_ns: crate::stats::median(&mut dec),
    })
}

/// The receive path's work on one frame: header and checksum, then the
/// packet body as a zero-copy window of the frame.
fn decode(frame: &Bytes) -> Result<Vec<PacketPart>, lucky_wire::DecodeError> {
    let payload = decode_frame(frame)?;
    decode_packet(&frame.slice_ref(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_round_trips_and_big_values_cost_more() {
        let small = replay(Value::from_u64(7)).expect("u64 shapes round-trip");
        let big = replay(Value::from_bytes(vec![0xAB; 1024])).expect("1 KiB shapes round-trip");
        assert!(small.encode_ns > 0.0 && small.decode_ns > 0.0);
        assert!(big.encode_ns > small.encode_ns, "{big:?} vs {small:?}");
    }
}
