package main

import (
	"testing"
)

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers(" node-b = http://h2:8080/ , node-c=http://h3:8080 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers["node-b"] != "http://h2:8080" || peers["node-c"] != "http://h3:8080" {
		t.Fatalf("parsePeers = %v", peers)
	}
	if got, err := parsePeers(""); err != nil || len(got) != 0 {
		t.Fatalf("empty flag: %v, %v", got, err)
	}
	for _, bad := range []string{"node-b", "=http://h2", "node-b=", "a=u,a=v"} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("parsePeers(%q) accepted", bad)
		}
	}
	if s := peerSummary(peers); s != "node-b=http://h2:8080 node-c=http://h3:8080" {
		t.Fatalf("peerSummary = %q", s)
	}
}
