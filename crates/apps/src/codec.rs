//! Minimal byte codec for model state snapshots.
//!
//! Checkpointing saves the address space; the small amount of model
//! state (iteration counters, allocation tables, RNG state) rides along
//! as an opaque blob. A hand-rolled little-endian codec keeps the
//! format explicit and dependency-free.

/// Encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Fresh writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Finish.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Decoder errors.
#[derive(Debug, PartialEq, Eq)]
pub struct CodecError(pub &'static str);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Decoder.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// Read from `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Read a u64.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        if self.buf.len() < 8 {
            return Err(CodecError("truncated u64"));
        }
        let (head, rest) = self.buf.split_at(8);
        self.buf = rest;
        Ok(u64::from_le_bytes(head.try_into().unwrap()))
    }

    /// Read a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.get_u64()? as usize;
        if self.buf.len() < len {
            return Err(CodecError("truncated bytes"));
        }
        let (head, rest) = self.buf.split_at(len);
        self.buf = rest;
        Ok(head)
    }

    /// Whether all input was consumed.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u64(42);
        w.put_bytes(b"state");
        let data = w.into_vec();
        let mut r = ByteReader::new(&data);
        assert_eq!(r.get_u64().unwrap(), 42);
        assert_eq!(r.get_bytes().unwrap(), b"state");
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_detected() {
        let mut w = ByteWriter::new();
        w.put_u64(1);
        let data = w.into_vec();
        let mut r = ByteReader::new(&data[..4]);
        assert!(r.get_u64().is_err());
        let mut w = ByteWriter::new();
        w.put_bytes(b"abcdef");
        let data = w.into_vec();
        let mut r = ByteReader::new(&data[..10]);
        assert!(r.get_bytes().is_err());
    }
}
