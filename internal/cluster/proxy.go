// Session routing: the coordinator places each checking session on a
// worker via the consistent-hash ring and transparently proxies the
// session's whole lifecycle — create, stream, audit, progress, delete —
// to that node. Clients keep speaking the ordinary viperd API to the
// coordinator; aggregate session throughput scales with the worker
// count and no checker code knows the cluster exists.
//
// Placement is sticky, not rebalanced: a session's history lives in its
// node's memory, so moving it mid-stream would mean replaying the
// stream. When a node dies its sessions are gone — requests for them
// answer 502 and the client recreates the session, which the (shrunken)
// ring then places on a surviving node. With no healthy workers the
// coordinator serves sessions locally, exactly like a standalone
// daemon.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"viper/internal/server"
)

func (c *Coordinator) route(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rest, ok := strings.CutPrefix(req.URL.Path, "/v1/sessions")
		if !ok {
			next.ServeHTTP(w, req)
			return
		}
		switch {
		case rest == "" || rest == "/":
			switch req.Method {
			case http.MethodPost:
				c.routeCreate(w, req, next)
				return
			case http.MethodGet:
				c.routeList(w, req, next)
				return
			}
		case strings.HasPrefix(rest, "/"):
			id := strings.TrimPrefix(rest, "/")
			if i := strings.IndexByte(id, '/'); i >= 0 {
				id = id[:i]
			}
			c.routeSession(w, req, next, id)
			return
		}
		next.ServeHTTP(w, req)
	})
}

// routeCreate places a new session on the ring and forwards the
// creation. The placement key is the client-chosen name when present
// (so recreations of a named session land on the same node while the
// membership is stable) and a coordinator-local sequence otherwise.
func (c *Coordinator) routeCreate(w http.ResponseWriter, req *http.Request, next http.Handler) {
	body, err := io.ReadAll(io.LimitReader(req.Body, 1<<20))
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("reading session config: %v", err))
		return
	}
	var cfg server.SessionConfig
	if len(bytes.TrimSpace(body)) > 0 {
		if err := json.Unmarshal(body, &cfg); err != nil {
			server.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding session config: %v", err))
			return
		}
	}

	c.mu.Lock()
	c.placeSeq++
	key := cfg.Name
	if key == "" {
		key = fmt.Sprintf("%s/%d", c.cfg.NodeName, c.placeSeq)
	}
	node := c.ring.Lookup(key)
	m, known := c.memberLocked(node)
	c.mu.Unlock()

	if node == "" || !known {
		req.Body = io.NopCloser(bytes.NewReader(body))
		next.ServeHTTP(w, req)
		return
	}

	outReq, err := http.NewRequestWithContext(req.Context(), http.MethodPost,
		m.url+req.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, err)
		return
	}
	outReq.Header = req.Header.Clone()
	resp, err := c.httpc.Do(outReq)
	if err != nil {
		// The node just died under us; serve locally rather than fail the
		// client — heartbeats will demote it shortly.
		c.cfg.logf("cluster: create on %q failed (%v), serving locally", node, err)
		req.Body = io.NopCloser(bytes.NewReader(body))
		next.ServeHTTP(w, req)
		return
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, err)
		return
	}
	if resp.StatusCode == http.StatusCreated {
		var info server.SessionInfo
		if json.Unmarshal(respBody, &info) == nil && info.ID != "" {
			c.mu.Lock()
			c.affinity[info.ID] = node
			c.mu.Unlock()
			c.srv.Metrics().Add("viperd_cluster_sessions_placed_total", 1)
		}
	}
	copyResponse(w, resp.Header, resp.StatusCode, respBody)
}

// routeSession forwards a session-scoped request to the node the
// session lives on; sessions without an affinity entry are local.
func (c *Coordinator) routeSession(w http.ResponseWriter, req *http.Request, next http.Handler, id string) {
	c.mu.Lock()
	node, placed := c.affinity[id]
	m, known := c.memberLocked(node)
	c.mu.Unlock()
	if !placed {
		next.ServeHTTP(w, req)
		return
	}
	if !known || !m.healthy {
		server.WriteError(w, http.StatusBadGateway,
			fmt.Errorf("session %q lives on node %q, which is unavailable; recreate the session", id, node))
		return
	}
	c.srv.Metrics().Add("viperd_cluster_proxied_requests_total", 1)
	ok := c.forward(w, req, m.url)
	if ok && req.Method == http.MethodDelete {
		c.mu.Lock()
		delete(c.affinity, id)
		c.mu.Unlock()
	}
}

// routeList merges the local session list with every healthy worker's.
func (c *Coordinator) routeList(w http.ResponseWriter, req *http.Request, next http.Handler) {
	type listBody struct {
		Sessions []server.SessionInfo `json:"sessions"`
	}
	var merged listBody

	local := newBufferingResponseWriter()
	next.ServeHTTP(local, req)
	if local.status == http.StatusOK {
		var lb listBody
		if json.Unmarshal(local.buf.Bytes(), &lb) == nil {
			merged.Sessions = append(merged.Sessions, lb.Sessions...)
		}
	}

	for _, m := range c.healthyMembers() {
		outReq, err := http.NewRequestWithContext(req.Context(), http.MethodGet, m.url+"/v1/sessions", nil)
		if err != nil {
			continue
		}
		resp, err := c.httpc.Do(outReq)
		if err != nil {
			continue
		}
		var lb listBody
		if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&lb) == nil {
			merged.Sessions = append(merged.Sessions, lb.Sessions...)
		}
		resp.Body.Close()
	}
	sort.Slice(merged.Sessions, func(i, j int) bool { return merged.Sessions[i].ID < merged.Sessions[j].ID })
	server.WriteJSON(w, http.StatusOK, merged)
}

// forward streams a request to base and the response back; it reports
// whether the upstream answered with a success status.
func (c *Coordinator) forward(w http.ResponseWriter, req *http.Request, base string) bool {
	outReq, err := http.NewRequestWithContext(req.Context(), req.Method, base+req.URL.RequestURI(), req.Body)
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, err)
		return false
	}
	outReq.Header = req.Header.Clone()
	resp, err := c.httpc.Do(outReq)
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, fmt.Errorf("forwarding to %s: %v", base, err))
		return false
	}
	defer resp.Body.Close()
	for k, vv := range resp.Header {
		w.Header()[k] = vv
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return resp.StatusCode >= 200 && resp.StatusCode < 300
}

// bufferingResponseWriter captures a handler's response so the router
// can post-process it (list merging).
type bufferingResponseWriter struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func newBufferingResponseWriter() *bufferingResponseWriter {
	return &bufferingResponseWriter{header: make(http.Header), status: http.StatusOK}
}

func (b *bufferingResponseWriter) Header() http.Header         { return b.header }
func (b *bufferingResponseWriter) WriteHeader(code int)        { b.status = code }
func (b *bufferingResponseWriter) Write(p []byte) (int, error) { return b.buf.Write(p) }

func copyResponse(w http.ResponseWriter, hdr http.Header, status int, body []byte) {
	for k, vv := range hdr {
		if k == "Content-Length" {
			continue
		}
		w.Header()[k] = vv
	}
	w.WriteHeader(status)
	w.Write(body)
}
