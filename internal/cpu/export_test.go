package cpu

import (
	"thermalherd/internal/config"
	"thermalherd/internal/trace"
)

// NewFresh builds a core on newly allocated storage, never on a
// released core's, as New did before cores were recycled.
func NewFresh(cfg config.Machine, src trace.Source) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := alloc(cfg)
	c.reset(cfg, src)
	return c, nil
}

// FreeCores returns how many released cores shaped like cfg wait for
// reuse.
func FreeCores(cfg config.Machine) int {
	freeCores.mu.Lock()
	defer freeCores.mu.Unlock()
	n := 0
	for _, c := range freeCores.cores {
		if c.shape == shapeOf(cfg) {
			n++
		}
	}
	return n
}
