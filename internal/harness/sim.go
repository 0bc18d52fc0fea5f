package harness

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/value"
)

// sim is the simulated-runtime fixture Run, Torture and RunGeoRep share:
// one cluster, its sites, the items loaded into it (sorted), and every
// transaction submitted to it.  Each runner keeps only its own step
// plan and report.
type sim struct {
	*cluster.Cluster
	sites   []protocol.SiteID
	items   []string
	handles []*cluster.Handle
}

// siteIDs names n sites prefix0..prefixN-1.
func siteIDs(prefix string, n int) []protocol.SiteID {
	ids := make([]protocol.SiteID, n)
	for i := range ids {
		ids[i] = protocol.SiteID(fmt.Sprintf("%s%d", prefix, i))
	}
	return ids
}

// newSim brings up a simulated cluster over cfg.Sites and loads the
// accounts, every replica of each when cfg.Replication is set.  It also
// returns the sum of the certain integer values it loaded.
func newSim(cfg cluster.Config, accounts map[string]polyvalue.Poly) (*sim, int64, error) {
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	items := make([]string, 0, len(accounts))
	for item := range accounts {
		items = append(items, item)
	}
	sort.Strings(items)
	var total int64
	for _, item := range items {
		p := accounts[item]
		if err := c.LoadReplicated(item, p); err != nil {
			c.Close()
			return nil, 0, fmt.Errorf("load %s: %w", item, err)
		}
		if v, ok := p.IsCertain(); ok {
			if n, ok := value.AsInt(v); ok {
				total += n
			}
		}
	}
	return &sim{Cluster: c, sites: cfg.Sites, items: items}, total, nil
}

// bank names n accounts acct0..acctN-1 and gives each initialBalance.
func bank(n int) ([]string, map[string]polyvalue.Poly) {
	names := make([]string, n)
	balances := make(map[string]polyvalue.Poly, n)
	for i := range names {
		names[i] = fmt.Sprintf("acct%d", i)
		balances[names[i]] = polyvalue.Simple(value.Int(initialBalance))
	}
	return names, balances
}

// down counts the sites that are down.
func (s *sim) down() int {
	n := 0
	for _, id := range s.sites {
		if s.IsDown(id) {
			n++
		}
	}
	return n
}

// live returns the first site draw yields that is up, or the first it
// yields when every site is down.
func (s *sim) live(draw func() protocol.SiteID) protocol.SiteID {
	id := draw()
	if s.down() == len(s.sites) {
		return id
	}
	for s.IsDown(id) {
		id = draw()
	}
	return id
}

// submit starts src at coord and keeps its handle.
func (s *sim) submit(coord protocol.SiteID, src string) (*cluster.Handle, error) {
	h, err := s.Submit(coord, src)
	if err == nil {
		s.handles = append(s.handles, h)
	}
	return h, err
}

// read returns an item's value at its owning site; it never fails.
func (s *sim) read(item string) (polyvalue.Poly, bool) { return s.Read(item), true }

// repair heals every link and restarts every down site.
func (s *sim) repair() {
	s.HealAll()
	for _, id := range s.sites {
		if s.IsDown(id) {
			s.Restart(id)
		}
	}
}

// tally counts handles by final status, calling committed with the
// index of each committed one, in submission order.
func tally(handles []*cluster.Handle, committed func(i int)) (commits, aborts, pending int) {
	for i, h := range handles {
		switch h.Status() {
		case cluster.StatusCommitted:
			commits++
			if committed != nil {
				committed(i)
			}
		case cluster.StatusAborted:
			aborts++
		default:
			pending++
		}
	}
	return commits, aborts, pending
}
