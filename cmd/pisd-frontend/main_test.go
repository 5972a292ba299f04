package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"pisd/internal/cloud"
	"pisd/internal/transport"
)

// cloudServers starts n in-process cloud servers on ephemeral ports and
// returns their addresses as one -cloud list.
func cloudServers(t *testing.T, n int) string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		srv := transport.NewServer(cloud.New())
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Shutdown(context.Background()) })
		addrs[i] = addr
	}
	return strings.Join(addrs, ",")
}

// TestRunDeployments boots the front end against in-process servers in
// each deployment shape the -cloud list selects. A single address runs the
// same build, install and fan-out path as several.
func TestRunDeployments(t *testing.T) {
	cases := []struct {
		name    string
		servers int
		flags   []string
		want    []string
	}{
		{"one address", 1, nil, []string{"built 1-shard secure index", "shard 0: outsourced index"}},
		{"two addresses", 2, nil, []string{"built 2-shard secure index", "shard 1: outsourced index"}},
		{"two replicas over four addresses", 4, []string{"-replicas", "2"},
			[]string{"replicated fleet: 2 partitions x 2 replicas", "built 2-shard secure index"}},
		{"dynamic churn", 2, []string{"-dynamic", "-churn", "10"},
			[]string{"built 2-shard dynamic index", "churn wave done"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := append([]string{"-cloud", cloudServers(t, c.servers),
				"-users", "300", "-dim", "64", "-discover", "1,2,1"}, c.flags...)
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			got := out.String()
			for _, w := range append(c.want, "\nuser 1 ", "\nuser 2 ", "  1. user ", "total traffic:") {
				if !strings.Contains(got, w) {
					t.Errorf("output lacks %q:\n%s", w, got)
				}
			}
			if strings.Contains(got, "PARTIAL") {
				t.Errorf("healthy deployment answered partially:\n%s", got)
			}
		})
	}
}

// TestRunRejectsBadFlags checks the flag and deployment-shape validation.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-cloud", ",", "-users", "50", "-dim", "24"},
		{"-cloud", "a,b,c", "-replicas", "2", "-users", "50", "-dim", "24"},
		{"-cloud", "a,b", "-attach", "-keys", t.TempDir() + "/missing", "-users", "50", "-dim", "24"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%q) accepted", args)
		}
	}
}
