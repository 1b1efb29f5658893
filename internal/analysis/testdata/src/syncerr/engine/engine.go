// Golden file for the syncerr analyzer's Heap.Scan rule, which applies in
// every package: a scan whose error is dropped passes a walk cut short by a
// failed page pin off as a complete one.
package engine

import "storage"

func collect(h *storage.Heap) int {
	n := 0
	h.Scan(func(storage.RID, []byte) bool { n++; return true }) // want `Heap.Scan error discarded — a failed page pin ends the walk early and passes for a complete one; handle it`
	return n
}

func blank(h *storage.Heap) {
	_ = h.Scan(func(storage.RID, []byte) bool { return true }) // want `Heap.Scan error discarded`
}

func deferred(h *storage.Heap) {
	defer h.Scan(func(storage.RID, []byte) bool { return true }) // want `Heap.Scan error discarded`
}

func okHandled(h *storage.Heap) (int, error) {
	n := 0
	if err := h.Scan(func(storage.RID, []byte) bool { n++; return true }); err != nil {
		return 0, err
	}
	return n, nil
}

func okReturned(h *storage.Heap) error {
	return h.Scan(func(storage.RID, []byte) bool { return true })
}

// okOtherMethod: only Scan is covered; other Heap methods are not this
// rule's business.
func okOtherMethod(h *storage.Heap) {
	h.Count()
}

// okSyncOutOfScope: the Sync rule stays confined to the stable-storage
// packages.
func okSyncOutOfScope(f storage.File) {
	f.Sync()
}
