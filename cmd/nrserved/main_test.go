package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"netrecovery/internal/cluster"
	"netrecovery/internal/wire"
)

// TestDaemonEndToEnd boots the daemon on an ephemeral port, exercises
// /healthz and the cold/warm /v1/plan path, then shuts it down with SIGTERM
// and waits for the graceful exit.
func TestDaemonEndToEnd(t *testing.T) {
	ready := make(chan net.Addr, 1)
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-request-timeout", "30s"}, &out, ready)
	}()
	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before becoming ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	base := "http://" + addr.String()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	body := `{
		"scenario": {
			"nodes": [
				{"name": "a", "x": 0, "y": 0, "repairCost": 1},
				{"name": "b", "x": 1, "y": 0, "repairCost": 1},
				{"name": "c", "x": 2, "y": 0, "repairCost": 1}
			],
			"links": [
				{"from": 0, "to": 1, "capacity": 10, "repairCost": 1},
				{"from": 1, "to": 2, "capacity": 10, "repairCost": 1}
			],
			"demands": [{"source": 0, "target": 2, "flow": 5}],
			"broken_nodes": [1],
			"broken_links": [0, 1]
		},
		"algorithm": "ISP"
	}`
	post := func() (string, string) {
		resp, err := http.Post(base+"/v1/plan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plan: %d %s", resp.StatusCode, raw)
		}
		var parsed struct {
			Plan  json.RawMessage `json:"plan"`
			Cache struct {
				Status string `json:"status"`
			} `json:"cache"`
		}
		if err := json.Unmarshal(raw, &parsed); err != nil {
			t.Fatalf("bad response %s: %v", raw, err)
		}
		return string(parsed.Plan), parsed.Cache.Status
	}
	plan1, status1 := post()
	plan2, status2 := post()
	if status1 != "miss" || status2 != "hit" {
		t.Fatalf("cache statuses = %q, %q; want miss, hit", status1, status2)
	}
	if plan1 != plan2 {
		t.Fatalf("cached plan differs from cold plan:\n%s\nvs\n%s", plan1, plan2)
	}

	// Graceful shutdown on SIGTERM.
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with error: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("daemon did not shut down after SIGTERM")
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Errorf("missing shutdown log in output: %q", out.String())
	}
}

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}, io.Discard, nil); err == nil {
		t.Fatal("bad flag accepted")
	}
	// A busy/invalid address must fail fast, not hang.
	if err := run([]string{"-addr", "256.256.256.256:99999"}, io.Discard, nil); err == nil {
		t.Fatal("invalid address accepted")
	}
}

// TestBadLogLevel: an unknown -log-level is refused before the daemon
// starts, as an unknown -log-format is.
func TestBadLogLevel(t *testing.T) {
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-log-level", "bogus"}, io.Discard, ready)
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), `bad -log-level "bogus"`) {
			t.Fatalf("run = %v, want a bad -log-level error", err)
		}
	case addr := <-ready:
		t.Fatalf("daemon started on %s with -log-level bogus", addr)
	case <-time.After(10 * time.Second):
		t.Fatal("run neither failed nor started")
	}
}

// TestDaemonClusterMode boots two daemons wired into one ring and checks
// the cross-node cache path end to end: a plan solved on the fingerprint's
// owner is served as a peer fill on the other node.
func TestDaemonClusterMode(t *testing.T) {
	// Reserve two loopback ports so the peer list is known before boot.
	reserve := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		return addr
	}
	addrs := []string{reserve(), reserve()}
	urls := []string{"http://" + addrs[0], "http://" + addrs[1]}
	peers := urls[0] + "," + urls[1]

	var outs [2]bytes.Buffer
	done := make(chan error, 2)
	for i := range addrs {
		ready := make(chan net.Addr, 1)
		go func(i int) {
			done <- run([]string{
				"-addr", addrs[i],
				"-self", urls[i],
				"-peers", peers,
				"-probe-interval", "-1s",
				"-request-timeout", "30s",
			}, &outs[i], ready)
		}(i)
		select {
		case <-ready:
		case err := <-done:
			t.Fatalf("daemon %d exited before ready: %v", i, err)
		case <-time.After(10 * time.Second):
			t.Fatalf("daemon %d never became ready", i)
		}
	}

	body := `{
		"scenario": {
			"nodes": [
				{"name": "a", "x": 0, "y": 0, "repairCost": 1},
				{"name": "b", "x": 1, "y": 0, "repairCost": 2},
				{"name": "c", "x": 2, "y": 0, "repairCost": 3}
			],
			"links": [
				{"from": 0, "to": 1, "capacity": 10, "repairCost": 1},
				{"from": 1, "to": 2, "capacity": 10, "repairCost": 2}
			],
			"demands": [{"source": 0, "target": 2, "flow": 5}],
			"broken_nodes": [1],
			"broken_links": [1]
		},
		"algorithm": "ISP"
	}`
	// Compute the fingerprint's owner with the same ring the daemons built.
	var req wire.PlanRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	s, err := req.Scenario.Build()
	if err != nil {
		t.Fatal(err)
	}
	owner, ok := cluster.NewRing(urls, 0).Owner(s.Fingerprint(), nil)
	if !ok {
		t.Fatal("no ring owner")
	}
	other := urls[0]
	if owner == urls[0] {
		other = urls[1]
	}

	post := func(base string) string {
		resp, err := http.Post(base+"/v1/plan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plan via %s: %d %s", base, resp.StatusCode, raw)
		}
		var parsed struct {
			Cache struct {
				Status string `json:"status"`
			} `json:"cache"`
		}
		if err := json.Unmarshal(raw, &parsed); err != nil {
			t.Fatalf("bad response %s: %v", raw, err)
		}
		return parsed.Cache.Status
	}
	if status := post(owner); status != "miss" {
		t.Fatalf("owner solve: status %q, want miss", status)
	}
	if status := post(other); status != "peer" {
		t.Fatalf("non-owner: status %q, want peer", status)
	}
	if status := post(other); status != "hit" {
		t.Fatalf("non-owner repeat: status %q, want hit", status)
	}

	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon exited with error: %v", err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("daemons did not shut down after SIGTERM")
		}
	}
	if !strings.Contains(outs[0].String(), "cluster mode: 2 peers") {
		t.Errorf("missing cluster-mode log: %q", outs[0].String())
	}
}

// TestClusterFlagValidation: -peers without a matching -self fails fast.
func TestClusterFlagValidation(t *testing.T) {
	if err := run([]string{"-peers", "http://a:1,http://b:1"}, io.Discard, nil); err == nil {
		t.Fatal("cluster mode without -self accepted")
	}
}
