package cluster

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/vclock"
)

// NewNode builds a single-site cluster running over a caller-supplied
// transport on wall-clock time — the multi-process runtime behind
// cmd/polynode.  cfg.Sites is the full cluster membership (every process
// must pass the identical list, in the same order, so item placement
// agrees); only self is hosted here, and the other sites are expected to
// be their own processes reachable through fab.
//
// Semantics differences from the simulated runtime (New):
//
//   - time is real: WaitTimeout, RetryInterval etc. elapse on the wall,
//     and Handle.Wait / QueryHandle.Wait replace RunUntil for clients;
//   - transaction IDs are prefixed with the site name (plus a boot
//     epoch when a DataDir makes restarts possible), keeping them
//     unique across coordinating processes and incarnations;
//   - with a DataDir, the site recovers before it registers with fab,
//     so no delivered message finds an in-doubt transaction unresumed;
//   - the cluster owns fab and the wall clock: Close shuts both down.
//
// RunUntil/RunFor/Step and Partition/Heal are simulation-only and panic
// in node mode.
func NewNode(cfg Config, self protocol.SiteID, fab transport.Transport) (*Cluster, error) {
	if fab == nil {
		return nil, fmt.Errorf("cluster: NewNode needs a transport")
	}
	c, err := newCluster(cfg)
	if err != nil {
		return nil, err
	}
	cfg = c.cfg
	if !slices.Contains(cfg.Sites, self) {
		return nil, fmt.Errorf("cluster: self %q not in site list %v", self, cfg.Sites)
	}
	// Transaction IDs must never recur across incarnations of the same
	// site: the WAL outlives the process, so a reborn in-memory counter
	// would mint IDs that collide with an earlier life's durable outcome
	// and dependency records — a participant inquiring about the new
	// transaction could be answered with the old one's fate.  Durable
	// nodes therefore salt the prefix with a boot epoch; volatile nodes
	// lose every record with the process, so their plain prefix stands.
	// Item change stamps must not recur either (a read served before a
	// restart must fail validation after it), on volatile nodes too: they
	// count up from the same epoch, in nanoseconds, which no earlier
	// incarnation's count can have reached.
	epoch := time.Now().UnixNano()
	prefix := string(self) + ".t"
	if cfg.DataDir != "" {
		prefix += strconv.FormatInt(epoch, 36)
	}
	c.stamps.Store(uint64(epoch))
	c.wall = vclock.NewWall()
	c.clk, c.fab, c.deliver = c.wall, fab, async
	c.ids, c.qids = txn.NewIDGen(prefix), txn.NewIDGen(string(self)+".q")

	s, err := c.openSite(self)
	if err != nil {
		return nil, err
	}
	if cfg.DataDir == "" {
		// No durable medium: skip WAL record framing on every mutation
		// (a real process crash loses the in-memory store regardless).
		s.store.SetVolatile()
	}
	// In-doubt transactions resume exactly as on a site restart.  A frame
	// that arrives before the handlers are registered is dropped like one
	// sent to a dead process; the §3.3 retries cover it.
	if cfg.DataDir != "" {
		c.dispatch(s, s.recoverDurableState, wait)
	}
	fab.Register(self, s.onMessage)
	if br, ok := fab.(transport.BatchReceiver); ok {
		// A whole decoded frame becomes one site event per queue it
		// touches instead of one per message.
		br.RegisterBatch(self, s.onMessageBatch)
	}
	return c, nil
}

// Self returns the locally-hosted site in node mode ("" for the
// simulated runtime, which hosts every site).
func (c *Cluster) Self() protocol.SiteID {
	if c.wall == nil || len(c.sites) != 1 {
		return ""
	}
	for id := range c.sites {
		return id
	}
	return ""
}

// Local reports whether an item is placed at a locally-hosted site.
func (c *Cluster) Local(item string) bool {
	return c.sites[c.Placement(item)] != nil
}
