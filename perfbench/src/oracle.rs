//! Correctness oracle: every key's payload is a pattern of (key, version),
//! so any read can be checked against the key's last-written version.

use corm_sim_core::rng::split_mix64;

/// Writes the payload of `key` at `version` into `buf`.
pub fn fill(buf: &mut [u8], key: u64, version: u32) {
    let mut x = split_mix64(key ^ ((version as u64) << 40));
    for chunk in buf.chunks_mut(8) {
        chunk.copy_from_slice(&x.to_le_bytes()[..chunk.len()]);
        x = x.rotate_left(13) ^ 0x9E37_79B9_7F4A_7C15;
    }
}

/// Per-key versions and payload lengths, plus the tally of checked and
/// failed operations.
#[derive(Debug)]
pub struct Oracle {
    versions: Vec<u32>,
    lens: Vec<u16>,
    expect: Vec<u8>,
    /// Operations checked (or attempted, for ops that fail outright).
    pub attempted: u64,
    /// Operations that failed, were refused, timed out, or returned a
    /// wrong result.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
}

impl Oracle {
    /// An oracle over one key per entry of `lens`, each key carrying a
    /// payload of that many bytes.
    pub fn new(lens: Vec<u16>) -> Self {
        Oracle {
            versions: vec![0; lens.len()],
            expect: vec![0; lens.iter().copied().max().unwrap_or(0) as usize],
            lens,
            attempted: 0,
            failed: 0,
            first_failure: None,
        }
    }

    /// Payload length of `key`.
    pub fn len_of(&self, key: u64) -> usize {
        self.lens[key as usize] as usize
    }

    /// Longest payload.
    pub fn max_len(&self) -> usize {
        self.expect.len()
    }

    /// Payload bytes of `keys` together.
    pub fn bytes_of(&self, keys: impl IntoIterator<Item = u64>) -> u64 {
        keys.into_iter().map(|k| self.len_of(k) as u64).sum()
    }

    /// Current version of `key`.
    pub fn version(&self, key: u64) -> u32 {
        self.versions[key as usize]
    }

    /// Records that a write of `key` at `version` took effect.
    pub fn set_version(&mut self, key: u64, version: u32) {
        self.versions[key as usize] = version;
    }

    /// Fills `buf` (resized to the key's length) with `key`'s payload at
    /// `version`.
    pub fn payload_into(&self, buf: &mut Vec<u8>, key: u64, version: u32) {
        buf.resize(self.len_of(key), 0);
        fill(buf, key, version);
    }

    /// Checks a read of `key` that returned `got`; counts one attempt.
    pub fn check(&mut self, key: u64, got: &[u8]) -> bool {
        self.attempted += 1;
        let len = self.len_of(key);
        let version = self.version(key);
        fill(&mut self.expect[..len], key, version);
        if got == &self.expect[..len] {
            return true;
        }
        self.record_failure(|| format!("key {key} v{version}: payload mismatch"));
        false
    }

    /// Counts one attempted operation that succeeded without a payload
    /// to check.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one attempted operation that failed.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.record_failure(what);
    }

    fn record_failure(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_change_the_pattern() {
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        fill(&mut a, 7, 0);
        fill(&mut b, 7, 1);
        assert_ne!(a, b);
        fill(&mut b, 8, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn mismatches_are_counted() {
        let mut o = Oracle::new(vec![32; 4]);
        let mut buf = Vec::new();
        o.payload_into(&mut buf, 2, 0);
        assert!(o.check(2, &buf));
        o.set_version(2, 1);
        assert!(!o.check(2, &buf));
        assert_eq!((o.attempted, o.failed), (2, 1));
        assert!(o.first_failure.is_some());
    }
}
