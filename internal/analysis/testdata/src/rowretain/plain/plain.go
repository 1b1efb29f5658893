// Package plain keeps page rows outside internal/exec and the stagedb root:
// out of the analyzer's scope, nothing is reported.
package plain

import "rowretain/internal/exec"

var kept []exec.Row

func keep(pg *exec.Page) {
	kept = append(kept, pg.Row(0))
	pg.Release()
}
