//! `/proc/self/maps` parsing.
//!
//! The paper's library, preloaded via `LD_PRELOAD`, had to discover the
//! process's data segments (initialized data, BSS, heap, mmap areas) in
//! order to protect them (§4.1). On Linux that discovery reads
//! `/proc/self/maps`; this module is that parser.

use std::fs;

/// One mapping of the process address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapEntry {
    /// Start address.
    pub start: usize,
    /// End address (exclusive).
    pub end: usize,
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
    /// Executable.
    pub exec: bool,
    /// Private (copy-on-write) vs shared.
    pub private: bool,
    /// Backing path, `[heap]`, `[stack]`, or empty for anonymous.
    pub path: String,
}

impl MapEntry {
    /// Size in bytes.
    pub(crate) fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether this is the kind of segment the paper's library tracks:
    /// writable, private, non-stack data (the stack cannot be
    /// protected, §4.2).
    pub(crate) fn is_trackable_data(&self) -> bool {
        self.write && self.private && self.path != "[stack]" && !self.exec
    }
}

/// Parse one line of `/proc/pid/maps` format.
pub(crate) fn parse_line(line: &str) -> Option<MapEntry> {
    let mut parts = line.split_whitespace();
    let range = parts.next()?;
    let perms = parts.next()?;
    let _offset = parts.next()?;
    let _dev = parts.next()?;
    let _inode = parts.next()?;
    let path = parts.collect::<Vec<_>>().join(" ");
    let (start_s, end_s) = range.split_once('-')?;
    let start = usize::from_str_radix(start_s, 16).ok()?;
    let end = usize::from_str_radix(end_s, 16).ok()?;
    let perms: Vec<char> = perms.chars().collect();
    if perms.len() < 4 {
        return None;
    }
    Some(MapEntry {
        start,
        end,
        read: perms[0] == 'r',
        write: perms[1] == 'w',
        exec: perms[2] == 'x',
        private: perms[3] == 'p',
        path,
    })
}

/// Read and parse this process's memory map.
pub fn self_maps() -> std::io::Result<Vec<MapEntry>> {
    let text = fs::read_to_string("/proc/self/maps")?;
    Ok(text.lines().filter_map(parse_line).collect())
}

/// The total size of trackable data segments — what the paper's Table 2
/// "memory footprint" corresponds to for a live process.
pub fn trackable_data_bytes(entries: &[MapEntry]) -> usize {
    entries.iter().filter(|e| e.is_trackable_data()).map(|e| e.len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_typical_lines() {
        let heap = parse_line("55a8c5800000-55a8c5a00000 rw-p 00000000 00:00 0   [heap]").unwrap();
        assert_eq!(heap.path, "[heap]");
        assert!(heap.read && heap.write && !heap.exec && heap.private);
        assert_eq!(heap.len(), 0x200000);
        assert!(heap.is_trackable_data());

        let text =
            parse_line("7f1c8a000000-7f1c8a200000 r-xp 00000000 08:01 131 /usr/lib/libc.so.6")
                .unwrap();
        assert!(text.exec && !text.write);
        assert!(!text.is_trackable_data());
        assert_eq!(text.path, "/usr/lib/libc.so.6");

        let stack = parse_line("7ffc0000000-7ffc0021000 rw-p 00000000 00:00 0 [stack]").unwrap();
        assert!(!stack.is_trackable_data(), "the stack cannot be protected");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_line("").is_none());
        assert!(parse_line("not a mapping").is_none());
        assert!(parse_line("zzzz-yyyy rw-p 0 0 0").is_none());
    }

    #[test]
    fn reads_own_maps() {
        let maps = self_maps().unwrap();
        assert!(!maps.is_empty());
        // A Rust test binary always has heap and writable data.
        assert!(maps.iter().any(|e| e.path == "[heap]" || e.is_trackable_data()));
        assert!(trackable_data_bytes(&maps) > 0);
        // Our own mmap'd tracked regions appear as anonymous mappings.
        let r = crate::region::TrackedRegion::new(16);
        let maps = self_maps().unwrap();
        assert!(maps.iter().any(|e| e.path.is_empty() && e.len() >= 16 * 4096));
        drop(r);
    }
}
