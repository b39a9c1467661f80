//! An append-only arena that hands out references which outlive the push.
//!
//! The driver pins every view a batch resolves for the rest of that batch
//! ([`crate::driver`]): flights borrow the pinned program while later
//! flights of the same batch are still pinning further views. A `Vec`
//! cannot serve both at once — a push needs `&mut`, and may move what
//! earlier borrowers point at — so the arena is a chain of fixed-size
//! chunks of write-once cells: pushing needs only `&self`, nothing ever
//! moves, and a reference lives as long as the arena does. The first chunk
//! is inline, so a batch that pins at most [`PIN_CHUNK`] values (every solo
//! injection) never reaches the allocator; beyond that it is one block per
//! further chunk.

use std::cell::{Cell, OnceCell};

/// Values per chunk.
pub(crate) const PIN_CHUNK: usize = 32;

struct Chunk<T> {
    cells: [OnceCell<T>; PIN_CHUNK],
    next: OnceCell<Box<Chunk<T>>>,
}

impl<T> Chunk<T> {
    fn new() -> Chunk<T> {
        Chunk {
            cells: std::array::from_fn(|_| OnceCell::new()),
            next: OnceCell::new(),
        }
    }
}

/// The arena: slots are numbered from 0 in push order.
pub(crate) struct PinArena<T> {
    len: Cell<usize>,
    head: Chunk<T>,
}

impl<T> PinArena<T> {
    pub(crate) fn new() -> PinArena<T> {
        PinArena {
            len: Cell::new(0),
            head: Chunk::new(),
        }
    }

    /// The chunk holding `slot`, linking fresh chunks up to it as needed.
    fn chunk(&self, slot: usize) -> &Chunk<T> {
        let mut chunk = &self.head;
        for _ in 0..slot / PIN_CHUNK {
            chunk = chunk.next.get_or_init(|| Box::new(Chunk::new()));
        }
        chunk
    }

    /// Store `value`, returning its slot.
    pub(crate) fn push(&self, value: T) -> usize {
        let slot = self.len.get();
        self.len.set(slot + 1);
        let fresh = self.chunk(slot).cells[slot % PIN_CHUNK].set(value).is_ok();
        debug_assert!(fresh, "slots are handed out once");
        slot
    }

    /// The value pushed into `slot`.
    pub(crate) fn get(&self, slot: usize) -> &T {
        assert!(slot < self.len.get(), "slot {slot} was never pushed");
        self.chunk(slot).cells[slot % PIN_CHUNK]
            .get()
            .expect("every slot below len is filled")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_survive_later_pushes_across_chunks() {
        let arena = PinArena::new();
        let first = arena.push(String::from("first"));
        let held = arena.get(first);
        for i in 1..3 * PIN_CHUNK + 5 {
            assert_eq!(arena.push(i.to_string()), i);
        }
        assert_eq!(held, "first");
        assert_eq!(arena.get(PIN_CHUNK), &PIN_CHUNK.to_string());
        assert_eq!(
            arena.get(3 * PIN_CHUNK + 4),
            &(3 * PIN_CHUNK + 4).to_string()
        );
    }

    #[test]
    #[should_panic(expected = "never pushed")]
    fn reading_an_unpushed_slot_panics() {
        let arena = PinArena::<u8>::new();
        arena.push(1);
        arena.get(1);
    }
}
