// Package transport abstracts the message fabric a cluster site sends
// and receives protocol messages through.  Two implementations exist:
//
//   - *network.Network, the deterministic in-process simulated network
//     — the default for tests, benchmarks and the single-process
//     cluster runtime;
//   - TCP carries messages between real OS processes over loopback or a
//     LAN, using the internal/wire binary codec, so a cluster can run as
//     N independent polynode processes (cmd/polynode).
//
// Both deliver with lost-datagram semantics: Send never blocks on a slow
// or dead peer, and a message that cannot be delivered is dropped and
// counted in the metrics registry.  The commit protocol is built to
// tolerate exactly that (§3.3 retries outcome propagation until
// acknowledged), which is what lets one protocol core drive both fabrics
// unchanged.  Injected loss, duplication, delay and partitions come from
// a fault.Injector wrapped around either one.
package transport

import "repro/internal/protocol"

// Handler receives delivered messages at a site.  It is an alias (not a
// defined type) so *network.Network's Register, which takes the same
// func type, satisfies Transport.
type Handler = func(msg protocol.Message)

// BatchHandler receives every message of one decoded frame addressed to
// the same site in a single call.  Ownership of the slice transfers to
// the handler: the transport decodes each frame into fresh storage and
// never touches the messages again.
type BatchHandler func([]protocol.Message)

// BatchReceiver is implemented by transports that can hand a receiver
// whole same-destination frames (see TCP.RegisterBatch).  Receivers
// with their own serialization point use it to pay one scheduling event
// per frame instead of per message.
type BatchReceiver interface {
	RegisterBatch(site protocol.SiteID, h BatchHandler)
}

// Transport is the message fabric interface the cluster runtime sends
// through.  Implementations are safe for concurrent use.
type Transport interface {
	// Send transmits msg toward msg.To.  It never blocks on the
	// destination; undeliverable messages are dropped (and counted).
	Send(msg protocol.Message)
	// Register installs the delivery handler for a site.  Re-registering
	// replaces the handler (a restarted site re-registers).
	Register(site protocol.SiteID, h Handler)
	// SetDown marks a site crashed (true) or recovered (false) from this
	// fabric's point of view: messages to and from a down site are
	// dropped.  For TCP this only applies to the local site — remote
	// "down" is a real dead process.
	SetDown(site protocol.SiteID, down bool)
	// IsDown reports a site's down state as far as this fabric knows.
	IsDown(site protocol.SiteID) bool
	// Close shuts the fabric down gracefully: stops accepting, closes
	// connections, and waits for I/O goroutines to exit.
	Close() error
}
