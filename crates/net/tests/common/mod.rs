//! Blocking frame input for tests that play a raw client or a fake
//! server, decoding with the crate's own frame extractor.

use std::io::Read;

use icg_net::frame::{extract_frame, Extract};
use icg_net::wire::{from_bytes, Wire};

/// Reads the next message off `stream`. `buf` carries bytes already read
/// past the previous frame; keep one per stream. `None` means the
/// stream ended or failed, or the next frame is not a valid `T`.
pub fn recv_msg<T: Wire>(stream: &mut impl Read, buf: &mut Vec<u8>) -> Option<T> {
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match extract_frame(buf, 0) {
            Extract::Frame {
                body_start,
                body_end,
            } => {
                let msg = from_bytes(&buf[body_start..body_end]).ok();
                buf.drain(..body_end);
                return msg;
            }
            Extract::Bad => return None,
            Extract::NeedMore => match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return None,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            },
        }
    }
}
