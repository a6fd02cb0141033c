package main

import (
	"fmt"
	"strings"

	"faasm.dev/faasm/internal/kernels"
)

// Guest sources. Every guest talks to the host through the Table 2
// interface only; inputs and outputs are byte arrays the generator builds
// and checks. FC has no string literals, so state keys and function names
// are written into linear memory as little-endian words.

const (
	stateValueBytes = 512 << 10 // every state value is 512 KiB
	stateChunk      = 4096      // one word per chunk is read or stamped
	stateChunks     = stateValueBytes / stateChunk
	fanoutChildren  = 64
	modelKey        = "model"
	logKey          = "log"
)

// guest is one deployable function: its name on the daemon, its source and
// the upload language ("fc" or "wat").
type guest struct {
	Name string
	Lang string
	Src  string
}

// echoGuest copies its input to its output: the smallest call that still
// crosses the host interface twice.
var echoGuest = guest{Name: "echo", Lang: "fc", Src: `
#memory 1
extern faasm read_call_input(i32, i32) i32;
extern faasm write_call_output(i32, i32);
func main() i32 {
	var n i32 = read_call_input(1024, 4096);
	write_call_output(1024, n);
	return 0;
}`}

// fanoutGuest reads a 4-byte base b, chains echo(b+i) for i in [0,64),
// awaits every child and writes the 4-byte sum of their outputs. The return
// code counts children that failed.
var fanoutGuest = guest{Name: "fanout", Lang: "fc", Src: fmt.Sprintf(`
#memory 1
extern faasm read_call_input(i32, i32) i32;
extern faasm write_call_output(i32, i32);
extern faasm chain_call(i32, i32, i32, i32) i32;
extern faasm await_call(i32) i32;
extern faasm get_call_output(i32, i32, i32) i32;
func main() i32 {
	var name *i32 = 512;
	name[0] = %d; // "echo"
	var in *i32 = 1024;
	read_call_input(1024, 4);
	var base i32 = in[0];
	var ids *i32 = 2048;
	var args *i32 = 4096;
	for (var i i32 = 0; i < %d; i = i + 1) {
		args[i] = base + i;
		ids[i] = chain_call(512, 4, 4096 + i*4, 4);
	}
	var out *i32 = 1028;
	var sum i32 = 0;
	var bad i32 = 0;
	for (var i i32 = 0; i < %d; i = i + 1) {
		if (await_call(ids[i]) != 0) { bad = bad + 1; }
		get_call_output(ids[i], 1028, 4);
		sum = sum + out[0];
	}
	in[0] = sum;
	write_call_output(1024, 4);
	return bad;
}`, leWord("echo"), fanoutChildren, fanoutChildren)}

// stateReadGuest takes a key name as input, forces a full pull of that
// 512 KiB value from the global tier, maps it and the never-re-pulled
// "model" value, and writes the sum of one word per 4 KiB chunk of both.
var stateReadGuest = guest{Name: "state_read", Lang: "fc", Src: fmt.Sprintf(`
#memory 1
extern faasm read_call_input(i32, i32) i32;
extern faasm write_call_output(i32, i32);
extern faasm pull_state(i32, i32);
extern faasm get_state(i32, i32, i32) *i32;
func main() i32 {
	var n i32 = read_call_input(1024, 64);
	var mk *i32 = 512;
	mk[0] = %d; mk[1] = %d; // "model"
	pull_state(1024, n);
	var v *i32 = get_state(1024, n, %d);
	var m *i32 = get_state(512, %d, %d);
	var sum i32 = 0;
	for (var i i32 = 0; i < %d; i = i + 1) {
		sum = sum + v[i*%d] + m[i*%d];
	}
	var out *i32 = 2048;
	out[0] = sum;
	write_call_output(2048, 4);
	return 0;
}`, leWord(modelKey[:4]), leWord(modelKey[4:]), stateValueBytes, len(modelKey), stateValueBytes,
	stateChunks, stateChunk/4, stateChunk/4)}

// stateWriteGuest takes an 8-byte stamp followed by a key name, stamps the
// head of every 4 KiB chunk of that value, pushes it to the global tier and
// appends a 16-byte record (stamp, first 8 key bytes) to "log". It echoes
// the stamp.
var stateWriteGuest = guest{Name: "state_write", Lang: "fc", Src: fmt.Sprintf(`
#memory 1
extern faasm read_call_input(i32, i32) i32;
extern faasm write_call_output(i32, i32);
extern faasm push_state(i32, i32);
extern faasm get_state(i32, i32, i32) *i64;
extern faasm append_state(i32, i32, i32, i32);
func main() i32 {
	var n i32 = read_call_input(1024, 64);
	var in *i64 = 1024;
	var stamp i64 = in[0];
	var v *i64 = get_state(1032, n - 8, %d);
	for (var i i32 = 0; i < %d; i = i + 1) {
		v[i*%d] = stamp;
	}
	push_state(1032, n - 8);
	var lk *i32 = 512;
	lk[0] = %d; // "log"
	var rec *i64 = 2048;
	rec[0] = stamp;
	rec[1] = in[1];
	append_state(512, %d, 2048, 16);
	write_call_output(1024, 8);
	return 0;
}`, stateValueBytes, stateChunks, stateChunk/8, leWord(logKey), len(logKey))}

// coldDataBytes is the size of the cold guest's data segment, and
// coldDataBase where it is loaded.
const (
	coldDataBytes = 64 << 10
	coldDataBase  = 64 << 10
)

// coldDataByte is the i-th byte of the cold guest's data segment: printable
// ASCII, so the wat string literal needs no escapes.
func coldDataByte(i int) byte { return byte('a' + (i*7+i/251)%26) }

// coldGuestSource is the module every cold_first_call function is an
// upload of: 16 pages with a 64 KiB data segment. It reads a 4-byte x and
// writes x + the data-segment word at index x mod 16384, so a reply proves
// the segment was initialised.
func coldGuestSource() string {
	data := make([]byte, coldDataBytes)
	for i := range data {
		data[i] = coldDataByte(i)
	}
	return fmt.Sprintf(`(module
  (import "faasm" "read_call_input" (func $read (param i32 i32) (result i32)))
  (import "faasm" "write_call_output" (func $write (param i32 i32)))
  (memory 16)
  (data (i32.const %d) "%s")
  (func $main (export "main") (result i32) (local $x i32)
    i32.const 1024
    i32.const 4
    call $read
    drop
    i32.const 1024
    i32.load
    local.set $x
    i32.const 1028
    local.get $x
    i32.const %d
    i32.and
    i32.const 4
    i32.mul
    i32.const %d
    i32.add
    i32.load
    local.get $x
    i32.add
    i32.store
    i32.const 1028
    i32.const 4
    call $write
    i32.const 0))`, coldDataBase, data, coldDataBytes/4-1, coldDataBase)
}

// coldGuest is that module as a guest; each cold function is an upload of it
// under its own name.
var coldGuest = guest{Name: "cold", Lang: "wat", Src: coldGuestSource()}

// coldWord is the data-segment word the cold guest adds to input x.
func coldWord(x uint32) uint32 {
	i := int(x&(coldDataBytes/4-1)) * 4
	return uint32(coldDataByte(i)) | uint32(coldDataByte(i+1))<<8 |
		uint32(coldDataByte(i+2))<<16 | uint32(coldDataByte(i+3))<<24
}

// computeKernel is the internal/kernels suite entry compute_2mm runs.
const computeKernel = "2mm"

// computeGuest wraps the kernels FC source (whose main returns an f64
// checksum) in an i32 main that writes the checksum as the call output. It
// also returns the native twin's checksum, the oracle.
func computeGuest() (guest, float64, error) {
	k, ok := kernels.ByName(computeKernel)
	if !ok {
		return guest{}, 0, fmt.Errorf("kernels: no %s kernel", computeKernel)
	}
	if !strings.Contains(k.FC, "func main() f64") {
		return guest{}, 0, fmt.Errorf("kernels: %s source has no f64 main to wrap", computeKernel)
	}
	src := "extern faasm write_call_output(i32, i32);\n" +
		strings.Replace(k.FC, "func main() f64", "func kernel() f64", 1) + `
func main() i32 {
	var out *f64 = alloc_f64(1);
	out[0] = kernel();
	write_call_output(i32(out), 8);
	return 0;
}`
	return guest{Name: "compute_2mm", Lang: "fc", Src: src}, k.Native(k.N), nil
}

// leWord packs up to four bytes of s into the little-endian i32 an FC guest
// stores to spell s in linear memory.
func leWord(s string) int32 {
	var w uint32
	for i := 0; i < len(s) && i < 4; i++ {
		w |= uint32(s[i]) << (8 * i)
	}
	return int32(w)
}
