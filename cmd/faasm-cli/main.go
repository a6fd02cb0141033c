// Command faasm-cli talks to a faasmd instance: upload functions and
// invoke them. It can also operate on the global state tier directly,
// routing across sharded endpoints exactly as faasmd does.
//
//	faasm-cli -d http://localhost:8090 upload hello hello.fc
//	faasm-cli -d http://localhost:8090 invoke hello "input bytes"
//	faasm-cli -d http://localhost:8090 status
//	faasm-cli -state a:6500,b:6500 state set key value
//	faasm-cli -state a:6500,b:6500 state get key
//	faasm-cli -state a:6500,b:6500 state keys|shards
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"faasm.dev/faasm/internal/shardkvs"
)

func main() {
	daemon := flag.String("d", "http://localhost:8090", "faasmd base URL")
	stateAddrs := flag.String("state", "", "comma-separated kvs shard endpoints for state commands")
	stateReplicas := flag.Int("state-replicas", 1, "copies per key when the tier is sharded")
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	switch args[0] {
	case "state":
		stateCmd(*stateAddrs, *stateReplicas, args[1:])
	case "upload":
		if len(args) != 3 {
			usage()
			os.Exit(2)
		}
		src, err := os.ReadFile(args[2])
		if err != nil {
			fatal(err)
		}
		lang := "wat"
		if strings.HasSuffix(args[2], ".fc") {
			lang = "fc"
		}
		req, err := http.NewRequest(http.MethodPut,
			fmt.Sprintf("%s/f/%s?lang=%s", *daemon, args[1], lang), bytes.NewReader(src))
		if err != nil {
			fatal(err)
		}
		do(req)
	case "invoke":
		if len(args) < 2 {
			usage()
			os.Exit(2)
		}
		var input []byte
		if len(args) > 2 {
			input = []byte(args[2])
		}
		req, err := http.NewRequest(http.MethodPost,
			fmt.Sprintf("%s/invoke/%s", *daemon, args[1]), bytes.NewReader(input))
		if err != nil {
			fatal(err)
		}
		do(req)
	case "status":
		req, _ := http.NewRequest(http.MethodGet, *daemon+"/status", nil)
		do(req)
	default:
		usage()
		os.Exit(2)
	}
}

func do(req *http.Request) {
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 300 {
		fmt.Fprintf(os.Stderr, "%s: %s", resp.Status, body)
		os.Exit(1)
	}
	if rc := resp.Header.Get("X-Faasm-Return-Code"); rc != "" {
		fmt.Fprintf(os.Stderr, "return code: %s\n", rc)
	}
	os.Stdout.Write(body)
}

// stateCmd operates on the global tier through the same consistent-hash
// routing faasmd uses, so a CLI write lands on the shard a runtime read
// will consult. Reads fail over like faasmd's: with -state-replicas above 1,
// a get whose primary shard is down is answered by a replica.
func stateCmd(addrs string, replicas int, args []string) {
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	endpoints := shardkvs.SplitEndpoints(addrs)
	if len(endpoints) == 0 {
		fatal(fmt.Errorf("state commands need -state with at least one endpoint"))
	}
	ring, err := shardkvs.AttachRemote(endpoints, shardkvs.Options{Replication: replicas})
	if err != nil {
		fatal(err)
	}
	defer ring.Close()
	switch {
	case args[0] == "get" && len(args) == 2:
		v, err := ring.Get(args[1])
		if err != nil {
			fatal(err)
		}
		if v == nil {
			fmt.Fprintln(os.Stderr, "(nil)")
			os.Exit(1)
		}
		os.Stdout.Write(v)
	case args[0] == "set" && len(args) == 3:
		if err := ring.Set(args[1], []byte(args[2])); err != nil {
			fatal(err)
		}
	case args[0] == "del" && len(args) == 2:
		if err := ring.Delete(args[1]); err != nil {
			fatal(err)
		}
	case args[0] == "keys" && len(args) == 1:
		infos, err := ring.AllKeys()
		if err != nil {
			fatal(err)
		}
		for _, ki := range infos {
			fmt.Printf("%c %s\n", ki.Kind, ki.Key)
		}
	case args[0] == "shards" && len(args) == 1:
		counts, err := ring.ShardKeyCounts()
		if err != nil {
			fatal(err)
		}
		// AttachRemote names each node by its endpoint address.
		for _, addr := range endpoints {
			fmt.Printf("%s: %d keys\n", addr, counts[addr])
		}
	default:
		usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: faasm-cli [-d url] [-state endpoints] <command>
  upload <name> <file.fc|file.wat>
  invoke <name> [input]
  status
  state get <key> | set <key> <value> | del <key> | keys | shards`)
}
