package main

import (
	"fmt"
	"sort"
	"strings"
)

// parsePeers parses the -peers flag: a comma-separated list of id=url
// entries naming every OTHER federation member, e.g.
//
//	-peers node-b=http://host2:8080,node-c=http://host3:8080
func parsePeers(s string) (map[string]string, error) {
	peers := map[string]string{}
	if strings.TrimSpace(s) == "" {
		return peers, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		id, url = strings.TrimSpace(id), strings.TrimSpace(url)
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("-peers entry %q is not id=url", part)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("-peers names node %q twice", id)
		}
		peers[id] = strings.TrimSuffix(url, "/")
	}
	return peers, nil
}

// peerSummary renders the peer map as a stable "id→url" list for startup
// logging.
func peerSummary(peers map[string]string) string {
	ids := make([]string, 0, len(peers))
	for id := range peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	parts := make([]string, 0, len(ids))
	for _, id := range ids {
		parts = append(parts, id+"="+peers[id])
	}
	return strings.Join(parts, " ")
}
