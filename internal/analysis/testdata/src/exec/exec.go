// Package exec is a stub of stagedb/internal/exec for the analyzer golden
// files: just enough surface (PagePool.Get, Page.Release) for
// pagerefs to recognize the ownership protocol by package suffix, type, and
// method name.
package exec

// Page stands in for the pooled exchange page.
type Page struct {
	Rows []int
}

// Release returns the page to its pool.
func (p *Page) Release() {}

// Len reads the page without taking ownership.
func (p *Page) Len() int { return len(p.Rows) }

// PagePool stands in for the exchange-page allocator.
type PagePool struct{}

// Get returns a page owned by the caller.
func (pp *PagePool) Get(capRows int) *Page { return &Page{Rows: make([]int, 0, capRows)} }
