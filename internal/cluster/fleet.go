package cluster

import (
	"faasm.dev/faasm/internal/autoscale"
)

// fleet adapts a Cluster to autoscale.Fleet: the controller sees host
// slots through the signals the runtime already exports and acts through
// the cluster's lifecycle API.
type fleet Cluster

// Fleet exposes the cluster to an autoscale.Controller (FAASM mode).
func (c *Cluster) Fleet() autoscale.Fleet { return (*fleet)(c) }

// Signals implements autoscale.Fleet.
func (f *fleet) Signals() []autoscale.HostSignals {
	c := (*Cluster)(f)
	c.mu.Lock()
	slots := make([]*faasmHost, len(c.faasm))
	copy(slots, c.faasm)
	c.mu.Unlock()
	out := make([]autoscale.HostSignals, len(slots))
	for i, s := range slots {
		out[i] = autoscale.HostSignals{
			Index:      i,
			Host:       s.inst.Host(),
			Inflight:   s.inst.Inflight(),
			PoolMisses: s.inst.PoolMisses.Value(),
			Draining:   s.inst.Draining(),
			Killed:     s.inst.Killed(),
			Removed:    s.removed.Load(),
		}
	}
	return out
}

// AddHost implements autoscale.Fleet.
func (f *fleet) AddHost() (int, error) { return (*Cluster)(f).AddHost() }

// DrainHost implements autoscale.Fleet.
func (f *fleet) DrainHost(h int) error { return (*Cluster)(f).DrainHost(h) }

// ReclaimHost implements autoscale.Fleet.
func (f *fleet) ReclaimHost(h int) error { return (*Cluster)(f).ReclaimHost(h) }
