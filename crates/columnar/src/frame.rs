//! Length-prefix framing.
//!
//! The block format wraps each codec payload in a *frame* —
//! `payload_len (u32 LE) | payload` — so a reader holding the frame offset
//! can fetch exactly the bytes of one payload (and a sequential reader can
//! *skip* a payload without parsing it). [`write_frame`] runs a payload
//! writer and back-patches the length prefix once the size is known (single
//! pass, so framing never buffers a payload twice); [`take_frame`] splits
//! one frame off the front of a buffer. Whether a payload must consume its
//! frame exactly is the caller's check (`corra-core`'s `format.rs` rejects
//! trailing bytes inside a frame).

use crate::error::{Error, Result};

/// Maximum payload bytes a single frame can carry (`u32::MAX`).
pub const MAX_FRAME_LEN: usize = u32::MAX as usize;

/// Splits the next `len (u32 LE) | payload` frame off the front of `buf`,
/// returning the payload slice and advancing `buf` past it.
///
/// # Errors
///
/// [`Error::Corrupt`] when fewer than four length bytes remain or the
/// declared payload length exceeds the remaining input.
pub fn take_frame<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8]> {
    if buf.len() < 4 {
        return Err(Error::corrupt("frame length truncated"));
    }
    let len = u32::from_le_bytes(buf[..4].try_into().expect("four bytes checked")) as usize;
    if buf.len() - 4 < len {
        return Err(Error::corrupt("frame payload truncated"));
    }
    let payload = &buf[4..4 + len];
    *buf = &buf[4 + len..];
    Ok(payload)
}

/// Runs `write` to append a payload to `buf`, then back-patches the `u32`
/// length prefix in front of it.
///
/// # Errors
///
/// [`Error::InvalidData`] when the payload exceeds [`MAX_FRAME_LEN`].
pub fn write_frame(buf: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
    let at = buf.len();
    buf.extend_from_slice(&[0u8; 4]);
    write(buf);
    let len = buf.len() - at - 4;
    let len32 = u32::try_from(len)
        .map_err(|_| Error::invalid(format!("frame payload of {len} B exceeds u32 length")))?;
    buf[at..at + 4].copy_from_slice(&len32.to_le_bytes());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &[u8], buf: &mut Vec<u8>) {
        write_frame(buf, |b| b.extend_from_slice(payload)).unwrap();
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        frame(&[3, 7], &mut buf);
        frame(&[1, 2], &mut buf);
        assert_eq!(buf.len(), 2 * (4 + 2));
        assert_eq!(&buf[..4], &2u32.to_le_bytes());
        let mut cursor = buf.as_slice();
        assert_eq!(take_frame(&mut cursor).unwrap(), &[3, 7]);
        assert_eq!(take_frame(&mut cursor).unwrap(), &[1, 2]);
        assert!(cursor.is_empty());
    }

    #[test]
    fn frames_are_skippable_without_parsing() {
        let mut buf = Vec::new();
        frame(&[9, 9, 9], &mut buf);
        frame(&[5, 6], &mut buf);
        let mut cursor = buf.as_slice();
        // Skip the first payload purely via its length prefix.
        take_frame(&mut cursor).unwrap();
        assert_eq!(take_frame(&mut cursor).unwrap(), &[5, 6]);
    }

    #[test]
    fn truncation_and_trailing_bytes_rejected() {
        let mut buf = Vec::new();
        frame(&[3, 7], &mut buf);
        for cut in 0..buf.len() {
            assert!(take_frame(&mut &buf[..cut]).is_err(), "cut {cut}");
        }
        // Bytes after a frame stay in the cursor for the caller to reject.
        buf.push(0xEE);
        let mut cursor = buf.as_slice();
        assert_eq!(take_frame(&mut cursor).unwrap(), &[3, 7]);
        assert_eq!(cursor, &[0xEE]);
        // Declared length past the end of input.
        let lying = 100u32.to_le_bytes().to_vec();
        assert!(take_frame(&mut lying.as_slice()).is_err());
    }
}
