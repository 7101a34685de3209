//! Author display handles packed into one buffer.

/// The author display handles of a snapshot, index-aligned with its
/// author rows: one `String` holding every handle back to back, plus the
/// end offset of each.
///
/// A delta ingest clones the handles of the generation it grows, so a
/// `Vec<String>` would cost one allocation (and one free when the old
/// generation retires) per author. Cloning `Handles` copies two buffers
/// whatever the author count. The on-disk formats store a list of
/// strings; the codecs convert at the boundary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Handles {
    text: String,
    ends: Vec<usize>,
}

impl Handles {
    /// Number of handles.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when there are no handles.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Byte offset where handle `i` starts (`i <= len`).
    fn start(&self, i: usize) -> Option<usize> {
        match i.checked_sub(1) {
            Some(prev) => self.ends.get(prev).copied(),
            None => Some(0),
        }
    }

    /// Handle `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<&str> {
        let end = *self.ends.get(i)?;
        self.text.get(self.start(i)?..end)
    }

    /// The handles in author order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).filter_map(move |i| self.get(i))
    }

    /// Append a handle.
    pub fn push(&mut self, handle: &str) {
        self.text.push_str(handle);
        self.ends.push(self.text.len());
    }

    /// Remove and return the last handle.
    pub fn pop(&mut self) -> Option<String> {
        let start = self.start(self.len().checked_sub(1)?)?;
        self.ends.pop();
        Some(self.text.split_off(start))
    }
}

impl<S: AsRef<str>> FromIterator<S> for Handles {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Handles {
        let mut handles = Handles::default();
        for h in iter {
            handles.push(h.as_ref());
        }
        handles
    }
}

impl From<Vec<String>> for Handles {
    fn from(handles: Vec<String>) -> Handles {
        handles.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soulmate_check::check;

    /// A handle list with empty, ASCII and multi-byte UTF-8 entries.
    fn handle_list(g: &mut soulmate_check::Gen) -> Vec<String> {
        g.vec(0..12, |g| match g.u8(0..4) {
            0 => String::new(),
            1 => g.string("[a-z0-9_-]", 1..10),
            2 => g.string("[éßΩЖ中😀]", 1..6),
            _ => g.string(".", 0..8),
        })
    }

    #[test]
    fn prop_handles_round_trip_through_get_and_iter() {
        check(128, |g| {
            let list = handle_list(g);
            let handles = Handles::from(list.clone());
            assert_eq!(handles.len(), list.len());
            assert_eq!(handles.is_empty(), list.is_empty());
            assert_eq!(handles.iter().collect::<Vec<_>>(), list);
            for (i, h) in list.iter().enumerate() {
                assert_eq!(handles.get(i), Some(h.as_str()));
            }
            assert_eq!(handles.get(list.len()), None);
            assert_eq!(handles, list.iter().collect::<Handles>());
        });
    }

    #[test]
    fn prop_push_after_clone_leaves_the_original_unchanged() {
        check(64, |g| {
            let list = handle_list(g);
            let extra = g.string(".", 0..6);
            let original = Handles::from(list.clone());
            let mut grown = original.clone();
            grown.push(&extra);
            assert_eq!(original.iter().collect::<Vec<_>>(), list);
            assert_eq!(grown.len(), list.len() + 1);
            assert_eq!(grown.get(list.len()), Some(extra.as_str()));
            assert_eq!(grown.pop(), Some(extra));
            assert_eq!(grown, original);
        });
    }

    #[test]
    fn pop_on_empty_is_none() {
        let mut handles = Handles::default();
        assert_eq!(handles.pop(), None);
        handles.push("");
        assert_eq!(handles.pop(), Some(String::new()));
        assert!(handles.is_empty());
    }
}
