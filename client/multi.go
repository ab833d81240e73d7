package client

import "fmt"

// Multi is a fixed fan-out of Clients, one per shard endpoint, dialed
// together and closed together. It is the transport a shard router holds
// toward its backside: shard index in, pipelined futures out. Multi adds
// no routing policy of its own — callers (internal/shard.Router) decide
// which shard a request belongs to.
type Multi struct {
	clients []*Client
}

// DialMulti connects to every address in order (all on the same network,
// "tcp" or "unix") with the same Config. If any dial fails, the already
// connected clients are closed and the error names the failing endpoint.
func DialMulti(network string, addrs []string, cfg Config) (*Multi, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("client: DialMulti needs at least one address")
	}
	m := &Multi{clients: make([]*Client, 0, len(addrs))}
	for _, addr := range addrs {
		c, err := Dial(network, addr, cfg)
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("client: dial shard %d (%s): %w", len(m.clients), addr, err)
		}
		m.clients = append(m.clients, c)
	}
	return m, nil
}

// Len returns the number of shard endpoints.
func (m *Multi) Len() int { return len(m.clients) }

// Client returns the underlying Client for one shard.
func (m *Multi) Client(shard int) *Client { return m.clients[shard] }

// Close closes every connected client.
func (m *Multi) Close() {
	for _, c := range m.clients {
		c.Close()
	}
}
