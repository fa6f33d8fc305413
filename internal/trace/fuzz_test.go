package trace

import "testing"

// FuzzTraceparent drives ParseTraceparent — the one parser in this package
// that reads bytes straight off the network (the `traceparent` header of
// /query) — with arbitrary input. Invariants: it never panics; a rejection
// returns zero values; an accepted header carries non-zero IDs and
// round-trips through FormatTraceparent — the rendering re-parses to the
// same IDs and flags, and a version-00 header is byte-for-byte its own
// rendering. Checked-in crashers live in testdata/fuzz/FuzzTraceparent.
func FuzzTraceparent(f *testing.F) {
	for _, h := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"00-aaaabbbbccccddddeeeeffff00001111-1122334455667788-ff",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-what-ever",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01",
		"",
	} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		tid, parent, flags, ok := ParseTraceparent(h)
		if !ok {
			if !tid.IsZero() || !parent.IsZero() || flags != 0 {
				t.Fatalf("ParseTraceparent(%q) rejected the header but returned %v %v %02x", h, tid, parent, flags)
			}
			return
		}
		if tid.IsZero() || parent.IsZero() {
			t.Fatalf("ParseTraceparent(%q) accepted a zero ID: %v %v", h, tid, parent)
		}
		out := FormatTraceparent(tid, parent, flags)
		tid2, parent2, flags2, ok := ParseTraceparent(out)
		if !ok || tid2 != tid || parent2 != parent || flags2 != flags {
			t.Fatalf("ParseTraceparent(%q) = %v %v %02x, but its rendering %q parses to %v %v %02x (ok=%v)",
				h, tid, parent, flags, out, tid2, parent2, flags2, ok)
		}
		if h[:2] == "00" && out != h {
			t.Fatalf("version-00 header %q was accepted but renders as %q", h, out)
		}
	})
}
