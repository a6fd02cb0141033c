// Package cgroup implements the CPU half of Faaslet resource isolation
// (§3.1): every Faaslet's executor thread is placed in a CPU group with a
// share equal to that of all other Faaslets, and the scheduler grants CPU
// time proportionally — the cgroups/CFS arrangement of the paper.
//
// Go cannot manipulate kernel cgroups portably from the standard library, so
// this package reproduces the *accounting and fairness* layer: a Controller
// tracks per-group charged CPU (wavm instruction steps or wall time), and
// its fair-share admission primitive lets the runtime throttle groups that
// exceed their proportional slice within an accounting window.
//
// Nothing outside core refers to the package, and no runtime builds a
// Controller, so neither the accounting nor the throttling is wired into
// any runtime, experiment or benchmark: the package stays unwired until
// ROADMAP item 2(b) decides its fate.
package cgroup

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"faasm.dev/faasm/internal/vtime"
)

// Group is one cgroup: a named accounting bucket with a share weight.
type Group struct {
	name    string
	shares  int64
	charged int64 // cycles (or ns) consumed
}

// Name returns the group's name.
func (g *Group) Name() string { return g.name }

// Controller manages the groups on one host.
type Controller struct {
	mu     sync.Mutex
	groups map[string]*Group
	clock  vtime.Clock
	// windowStart anchors the current fairness window.
	windowStart time.Time
	// window is the fairness accounting period.
	window time.Duration
}

// DefaultShares is the weight given to every Faaslet, making shares equal as
// in the paper.
const DefaultShares = 1024

// NewController creates a controller. A nil clock uses the wall clock.
func NewController(clock vtime.Clock) *Controller {
	if clock == nil {
		clock = vtime.Real{}
	}
	return &Controller{
		groups:      map[string]*Group{},
		clock:       clock,
		windowStart: clock.Now(),
		window:      100 * time.Millisecond,
	}
}

// Create adds a group with DefaultShares, or returns the existing one.
func (c *Controller) Create(name string) *Group {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g, ok := c.groups[name]; ok {
		return g
	}
	g := &Group{name: name, shares: DefaultShares}
	c.groups[name] = g
	return g
}

// Remove deletes a group (Faaslet teardown).
func (c *Controller) Remove(name string) {
	c.mu.Lock()
	delete(c.groups, name)
	c.mu.Unlock()
}

// SetShares overrides a group's weight.
func (c *Controller) SetShares(name string, shares int64) error {
	if shares <= 0 {
		return fmt.Errorf("cgroup: shares must be positive, got %d", shares)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.groups[name]
	if !ok {
		return fmt.Errorf("cgroup: no group %q", name)
	}
	g.shares = shares
	return nil
}

// Charge records consumed CPU for a group.
func (c *Controller) Charge(name string, cycles int64) {
	c.mu.Lock()
	if g, ok := c.groups[name]; ok {
		g.charged += cycles
	}
	c.mu.Unlock()
}

// Charged returns a group's total consumption.
func (c *Controller) Charged(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g, ok := c.groups[name]; ok {
		return g.charged
	}
	return 0
}

// TotalCharged sums consumption across groups.
func (c *Controller) TotalCharged() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for _, g := range c.groups {
		total += g.charged
	}
	return total
}

// Groups lists group names, sorted.
func (c *Controller) Groups() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.groups))
	for n := range c.groups {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// FairShare returns the fraction of total shares held by the group, the
// CFS-style entitlement.
func (c *Controller) FairShare(name string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.groups[name]
	if !ok {
		return 0
	}
	var total int64
	for _, other := range c.groups {
		total += other.shares
	}
	if total == 0 {
		return 0
	}
	return float64(g.shares) / float64(total)
}

// OverFairShare reports whether the group has consumed more than its
// entitled fraction of all consumption so far. The runtime uses it to
// throttle runaway Faaslets: a group over its share yields until the others
// catch up.
func (c *Controller) OverFairShare(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.groups[name]
	if !ok || len(c.groups) < 2 {
		return false
	}
	var totalShares, totalCharged int64
	for _, other := range c.groups {
		totalShares += other.shares
		totalCharged += other.charged
	}
	if totalCharged == 0 || totalShares == 0 {
		return false
	}
	entitled := float64(g.shares) / float64(totalShares)
	used := float64(g.charged) / float64(totalCharged)
	// 10% tolerance so a lone early group is not punished for going first.
	return used > entitled*1.10
}

// Throttle blocks the caller while the group is over its fair share,
// sleeping in small quanta on the controller's clock. It returns the time
// spent throttled.
func (c *Controller) Throttle(name string) time.Duration {
	const quantum = time.Millisecond
	var waited time.Duration
	for c.OverFairShare(name) {
		c.clock.Sleep(quantum)
		waited += quantum
		if waited > time.Second {
			break // never wedge a Faaslet forever
		}
	}
	return waited
}

// ResetWindow zeroes all consumption, starting a fresh fairness window.
func (c *Controller) ResetWindow() {
	c.mu.Lock()
	for _, g := range c.groups {
		g.charged = 0
	}
	c.windowStart = c.clock.Now()
	c.mu.Unlock()
}
