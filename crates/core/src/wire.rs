//! The byte-level wire kit shared by `dcn-serve` and `dcn-ps`.
//!
//! Both protocols frame a payload as `len:u32 payload` (little-endian,
//! `len ≤ MAX_FRAME`); `dcn-serve`'s line-JSON debug mode and its admin
//! plane read `\n`-terminated lines under the same cap. This module owns
//! that framing and its EOF discipline — a clean EOF between frames is
//! `Ok(None)`, an EOF inside one is an IO error — plus the coding of payload
//! fields: a bounds-checked [`Cursor`] for decoding, [`put_f32s`] and
//! [`put_str16`] for encoding. Each protocol keeps only its message tags and
//! layouts.
//!
//! f32 runs are decoded in bulk: [`Cursor::f32s`] checks a run's length
//! once, then converts every value in one pass. Error text is built only
//! when a decode fails.

use std::io::{BufRead, ErrorKind, Read, Write};

use crate::DcnError;

/// Hard ceiling on a frame's payload, and on a line, in bytes (16 MiB): a
/// hostile or corrupt length prefix is rejected before any allocation.
pub const MAX_FRAME: usize = 1 << 24;

/// Writes `payload` as one length-prefixed frame and flushes.
///
/// The prefix and payload go out in a single `write_all`: on a socket with
/// Nagle's algorithm on, a separate prefix write would hold the payload
/// back until the peer acknowledges the prefix.
///
/// # Errors
///
/// Propagates the underlying IO error.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    w.write_all(&out)?;
    w.flush()
}

/// Reads one length-prefixed frame's payload. `Ok(None)` is a clean EOF at
/// a frame boundary.
///
/// # Errors
///
/// [`DcnError::Io`] when the stream fails or ends inside a frame,
/// [`DcnError::Config`] for a length prefix beyond [`MAX_FRAME`].
pub fn read_frame<R: Read + ?Sized>(r: &mut R) -> Result<Option<Vec<u8>>, DcnError> {
    let mut prefix = [0u8; 4];
    match fill(r, &mut prefix)? {
        0 => return Ok(None),
        4 => {}
        got => {
            return Err(torn(format!(
                "stream ended inside a length prefix ({got} of 4 bytes)"
            )))
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(DcnError::Config(format!(
            "frame length {len} exceeds the {MAX_FRAME}-byte limit"
        )));
    }
    let mut payload = vec![0u8; len];
    if fill(r, &mut payload)? < len {
        return Err(torn(format!("stream ended inside a {len}-byte frame")));
    }
    Ok(Some(payload))
}

/// Reads one `\n`-terminated line, without its terminator. `Ok(None)` is a
/// clean EOF at a line boundary. At most `MAX_FRAME + 1` bytes are read, so
/// a peer that never sends `\n` cannot grow the buffer without bound.
///
/// # Errors
///
/// [`DcnError::Io`] when the stream fails or ends inside a line,
/// [`DcnError::Config`] for a line longer than [`MAX_FRAME`] bytes.
pub fn read_line<R: BufRead + ?Sized>(r: &mut R) -> Result<Option<Vec<u8>>, DcnError> {
    let mut line = Vec::new();
    // One byte past the cap tells an over-long line from one that fits.
    r.take(MAX_FRAME as u64 + 1)
        .read_until(b'\n', &mut line)
        .map_err(|e| read_failed(&e))?;
    if line.last() == Some(&b'\n') {
        line.pop();
        return Ok(Some(line));
    }
    if line.is_empty() {
        return Ok(None);
    }
    if line.len() > MAX_FRAME {
        return Err(DcnError::Config(format!(
            "line exceeds the {MAX_FRAME}-byte limit"
        )));
    }
    Err(torn("stream ended inside a line".to_string()))
}

/// Reads until `buf` is full or the stream ends; returns the bytes read,
/// which fall short of `buf.len()` only at EOF.
fn fill<R: Read + ?Sized>(r: &mut R, buf: &mut [u8]) -> Result<usize, DcnError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(read_failed(&e)),
        }
    }
    Ok(filled)
}

fn read_failed(e: &std::io::Error) -> DcnError {
    DcnError::Io {
        site: "wire.read".to_string(),
        kind: e.kind(),
        msg: e.to_string(),
    }
}

fn torn(msg: String) -> DcnError {
    DcnError::Io {
        site: "wire.eof".to_string(),
        kind: ErrorKind::UnexpectedEof,
        msg,
    }
}

/// Appends `values` as little-endian f32s, with no length prefix.
pub fn put_f32s(out: &mut Vec<u8>, values: &[f32]) {
    out.reserve(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends `s` as `len:u16 utf8`. A string longer than `u16::MAX` bytes is
/// cut at the last char boundary that fits, so the field stays valid UTF-8.
pub fn put_str16(out: &mut Vec<u8>, s: &str) {
    let mut take = s.len().min(u16::MAX as usize);
    while !s.is_char_boundary(take) {
        take -= 1;
    }
    out.extend_from_slice(&(take as u16).to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..take]);
}

/// A bounds-checked reader over one payload. Each take names its field
/// and, when too few bytes remain, fails with a message instead of
/// panicking. The caller maps the message onto the error class its
/// direction implies: a bad request is `Config`, a bad reply `Corrupt`.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Takes the next `n` bytes.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(format!(
                "payload truncated reading {what} (need {n} bytes at offset {}, have {})",
                self.pos,
                self.remaining()
            )),
        }
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], String> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N, what)?);
        Ok(a)
    }

    /// Takes one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    /// Takes a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, String> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// Takes a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, String> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// Takes a little-endian `f32`, bit-exact.
    pub fn f32(&mut self, what: &str) -> Result<f32, String> {
        self.array(what).map(f32::from_le_bytes)
    }

    /// Takes `n` little-endian f32s, bit-exact. The length is checked once,
    /// before anything is allocated.
    pub fn f32s(&mut self, n: usize, what: &str) -> Result<Vec<f32>, String> {
        let bytes = n
            .checked_mul(4)
            .ok_or_else(|| format!("{what}: {n} f32s overflow the address space"))?;
        let raw = self.take(bytes, what)?;
        Ok(raw
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    /// Takes a `len:u16 utf8` string, the inverse of [`put_str16`]. Fails
    /// also when the bytes are not UTF-8.
    pub fn str16(&mut self, what: &str) -> Result<String, String> {
        let len = u16::from_le_bytes(self.array(what)?) as usize;
        let raw = self.take(len, what)?;
        std::str::from_utf8(raw)
            .map(str::to_string)
            .map_err(|e| format!("{what} is not UTF-8: {e}"))
    }

    /// Bytes not yet taken.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Ends a decode: a payload holds exactly one message, so any byte
    /// left over is an error.
    pub fn finish(&self, what: &str) -> Result<(), String> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after {what}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts `write` calls, to pin one write per frame.
    #[derive(Default)]
    struct Recorder {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frames_roundtrip_and_clean_eof_is_none() {
        let mut w = Recorder::default();
        write_frame(&mut w, b"abc").unwrap();
        assert_eq!(w.writes, 1, "prefix and payload share one write");
        write_frame(&mut w, b"").unwrap();
        assert_eq!(w.bytes, [3, 0, 0, 0, b'a', b'b', b'c', 0, 0, 0, 0]);
        let mut r = &w.bytes[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(b"abc".to_vec()));
        assert_eq!(read_frame(&mut r).unwrap(), Some(Vec::new()));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn torn_frame_is_an_io_error() {
        let eof = |e: DcnError| {
            matches!(
                e,
                DcnError::Io {
                    kind: ErrorKind::UnexpectedEof,
                    ..
                }
            )
        };
        for cut in 1..4 {
            let mut r = &[7u8, 0, 0, 0][..cut];
            assert!(eof(read_frame(&mut r).unwrap_err()), "cut {cut}");
        }
        let mut r = &[7u8, 0, 0, 0, 1, 2][..];
        assert!(eof(read_frame(&mut r).unwrap_err()));
        // An oversized length prefix is rejected before allocation.
        for len in [MAX_FRAME as u32 + 1, u32::MAX] {
            let mut r = &len.to_le_bytes()[..];
            assert!(matches!(read_frame(&mut r), Err(DcnError::Config(_))));
        }
    }

    #[test]
    fn lines_are_bounded_and_a_torn_line_is_an_io_error() {
        let mut r = &b"ping\n\nhealth\n"[..];
        assert_eq!(read_line(&mut r).unwrap(), Some(b"ping".to_vec()));
        assert_eq!(read_line(&mut r).unwrap(), Some(Vec::new()));
        assert_eq!(read_line(&mut r).unwrap(), Some(b"health".to_vec()));
        assert_eq!(read_line(&mut r).unwrap(), None);
        let mut r = &b"{\"id\":1"[..];
        assert!(matches!(read_line(&mut r), Err(DcnError::Io { .. })));
        // A line of exactly MAX_FRAME bytes fits; one byte more does not,
        // newline or not.
        let mut long = vec![b'x'; MAX_FRAME];
        long.push(b'\n');
        assert_eq!(
            read_line(&mut &long[..]).unwrap().map(|l| l.len()),
            Some(MAX_FRAME)
        );
        long.insert(0, b'x');
        assert!(matches!(
            read_line(&mut &long[..]),
            Err(DcnError::Config(_))
        ));
        long.pop();
        assert!(matches!(
            read_line(&mut &long[..]),
            Err(DcnError::Config(_))
        ));
    }

    #[test]
    fn cursor_takes_are_bounds_checked_and_f32s_are_bit_exact() {
        let values = [
            f32::NAN,
            f32::NEG_INFINITY,
            -0.0,
            f32::MIN_POSITIVE,
            1.0000001,
        ];
        let mut buf = vec![9];
        buf.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&0.5f32.to_le_bytes());
        put_f32s(&mut buf, &values);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u8("a"), Ok(9));
        assert_eq!(c.u32("c"), Ok(0xDEAD_BEEF));
        assert_eq!(c.u64("d"), Ok(u64::MAX));
        assert_eq!(c.f32("e"), Ok(0.5));
        // A hostile count fails before any allocation.
        assert!(c.f32s(usize::MAX, "values").is_err());
        assert!(c.f32s(values.len() + 1, "values").is_err());
        let got = c.f32s(values.len(), "values").unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&values));
        assert_eq!(c.finish("message"), Ok(()));
        assert!(c.u8("past the end").is_err());
        let mut c = Cursor::new(&[1, 2]);
        assert!(c.u32("short").is_err());
        assert_eq!(c.remaining(), 2, "a failed take consumes nothing");
        assert!(c.finish("message").is_err());
    }

    #[test]
    fn str16_cuts_on_a_char_boundary_and_rejects_bad_utf8() {
        let mut buf = Vec::new();
        put_str16(&mut buf, "géométrie");
        put_str16(&mut buf, &"é".repeat(40_000)); // 80 000 bytes
        let mut c = Cursor::new(&buf);
        assert_eq!(c.str16("a").as_deref(), Ok("géométrie"));
        let cut = c.str16("b").unwrap();
        assert_eq!(cut.len(), u16::MAX as usize - 1);
        assert!(cut.chars().all(|ch| ch == 'é'));
        assert_eq!(c.finish("message"), Ok(()));
        let mut c = Cursor::new(&[2, 0, 0xFF, 0xFE]);
        assert!(c.str16("msg").is_err());
    }
}
