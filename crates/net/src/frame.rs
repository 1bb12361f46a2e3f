//! Length-prefixed framing over a byte stream.
//!
//! Every message on a connection travels as one frame:
//!
//! ```text
//! ┌────────────┬─────────┬──────────────────────────┐
//! │ len: u32 LE│ ver: u8 │ body: len-1 bytes        │
//! └────────────┴─────────┴──────────────────────────┘
//! ```
//!
//! `len` counts everything after itself (version byte + body), so a
//! reader can skip a frame it cannot parse. `ver` is the *message's*
//! minimum wire version ([`Wire::min_wire_version`]) — a message every
//! peer understands travels in the oldest frame that can carry it, so
//! mixed-version deployments interoperate on the shared message subset.
//! A receiver accepts [`MIN_WIRE_VERSION`]`..=`[`WIRE_VERSION`] and
//! rejects anything outside instead of misparsing it. The body is one
//! [`Wire`]-encoded message, decoded with exact-length consumption
//! (trailing bytes are an error).
//!
//! [`encode_frame`] writes a frame; [`extract_frame`] — the one frame
//! decoder, the reactor's read path — finds the next complete frame in
//! a byte buffer without copying it.
//!
//! [`MIN_WIRE_VERSION`]: crate::wire::MIN_WIRE_VERSION
//! [`WIRE_VERSION`]: crate::wire::WIRE_VERSION

use crate::wire::Wire;

pub use crate::reactor::conn::{extract_frame, Extract};

/// Hard cap on a frame's announced length. Nothing this protocol sends
/// comes near it; a peer announcing more is corrupt or hostile and the
/// connection is dropped.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Encodes `msg` as one complete frame (header + body) into `scratch`,
/// clearing it first. The result is ready for a single `write_all`.
pub fn encode_frame<T: Wire>(msg: &T, scratch: &mut Vec<u8>) {
    scratch.clear();
    append_frame(msg, scratch);
}

/// Encodes `msg` as one complete frame at the end of `out`, after the
/// frames already there: a write buffer that batches several frames
/// into one `writev`.
pub(crate) fn append_frame<T: Wire>(msg: &T, out: &mut Vec<u8>) {
    let start = out.len();
    // Reserve the length slot, then encode in place. The version byte is
    // the oldest version that understands *this* message, not the newest
    // this build speaks — see the module docs.
    out.extend_from_slice(&[0, 0, 0, 0, msg.min_wire_version()]);
    msg.encode(out);
    let len = (out.len() - start - 4) as u32;
    if let Some(slot) = out.get_mut(start..start + 4) {
        slot.copy_from_slice(&len.to_le_bytes());
    }
}
