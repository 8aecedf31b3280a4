package bench

import (
	"encoding/json"
	"fmt"

	"streamscale/internal/apps"
	"streamscale/internal/engine"
)

// Canonical returns the cell's memo key (hashed there together with the
// build fingerprint): a deterministic encoding of what the simulator
// receives — the app name, the resolved apps.Config, the clamped
// parallelism overrides, Chaining and the resolved engine.SimConfig. Two
// cells that resolve to the same run share a key, and any difference the
// run could observe changes it. encoding/json sorts map keys, so insertion
// order never leaks into the key, writes floats exactly, and refuses a
// value it cannot encode instead of printing a pointer. A cell that cannot
// resolve (an unknown system or spec variant) keys on its names: Run fails
// on those alone, before it builds anything.
func (c Cell) Canonical() string {
	sim, err := c.simConfig()
	if err != nil {
		return fmt.Sprintf("cell-v4 unresolved app=%q sys=%q spec=%q", c.App, c.System, c.Spec)
	}
	b, err := json.Marshal(struct {
		App       string
		Config    apps.Config
		Overrides map[string]int
		Chaining  bool
		Sim       engine.SimConfig
	}{c.App, c.appConfig(), c.overrides(), c.Chaining, sim})
	if err != nil {
		panic("bench: cell key: " + err.Error())
	}
	return "cell-v4 " + string(b)
}
