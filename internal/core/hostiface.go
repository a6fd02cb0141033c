package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"faasm.dev/faasm/internal/state"
	"faasm.dev/faasm/internal/vfs"
	"faasm.dev/faasm/internal/wamem"
	"faasm.dev/faasm/internal/wavm"
)

// This file implements Table 2 of the paper for SFI guests: every entry is
// a host-interface thunk injected into the module's "faasm" import space
// during linking. Pointer arguments are guest linear-memory offsets; byte
// arrays travel as (ptr, len) pairs, matching the paper's byte-array-only
// interface.
//
// Failure convention: POSIX-flavoured calls (files, sockets, memory) return
// -1 on recoverable failure, as the paper's host interface does. Violations
// that indicate a broken or hostile guest (bad pointers, unknown state
// keys at fixed sizes) surface as host-error traps and abort the call.

const (
	// stdoutFD and stderrFD are captured into the Faaslet's output log.
	stdoutFD = 1
	stderrFD = 2
	// socketFDBase separates the socket descriptor space from files.
	socketFDBase = 1000
)

// hostTable is the host interface every Faaslet links against, its modules
// and libraries alike. It is built once, in init (dlopen refers back to it),
// and never written afterwards, so all Faaslets share it without locking:
// each entry finds its Faaslet as the calling instance's owner, which link
// and dlopen attach with wavm.WithOwner.
var hostTable map[string]wavm.HostModule

func init() {
	hostTable = map[string]wavm.HostModule{"faasm": {
		// --- calls ---
		"read_call_input":   bind((*Faaslet).hiReadCallInput),
		"write_call_output": bind((*Faaslet).hiWriteCallOutput),
		"chain_call":        bind((*Faaslet).hiChainCall),
		"await_call":        bind((*Faaslet).hiAwaitCall),
		"get_call_output":   bind((*Faaslet).hiGetCallOutput),
		// --- state ---
		"get_state":                 bind(keyed((*Faaslet).hiGetState)),
		"get_state_offset":          bind(keyed((*Faaslet).hiGetStateOffset)),
		"set_state":                 bind(keyed((*Faaslet).hiSetState)),
		"set_state_offset":          bind(keyed((*Faaslet).hiSetStateOffset)),
		"push_state":                bind(keyed((*Faaslet).hiPushState)),
		"pull_state":                bind(keyed((*Faaslet).hiPullState)),
		"push_state_offset":         bind(keyed((*Faaslet).hiPushStateOffset)),
		"pull_state_offset":         bind(keyed((*Faaslet).hiPullStateOffset)),
		"append_state":              bind(keyed((*Faaslet).hiAppendState)),
		"state_size":                bind(keyed((*Faaslet).hiStateSize)),
		"lock_state_read":           bind(keyed(localLock((*state.Value).LockRead))),
		"lock_state_write":          bind(keyed(localLock((*state.Value).LockWrite))),
		"unlock_state_read":         bind(keyed(localLock((*state.Value).UnlockRead))),
		"unlock_state_write":        bind(keyed(localLock((*state.Value).UnlockWrite))),
		"lock_state_global_read":    bind(keyed(lockStateGlobal(false))),
		"lock_state_global_write":   bind(keyed(lockStateGlobal(true))),
		"unlock_state_global_read":  bind(keyed((*Faaslet).hiUnlockStateGlobal)),
		"unlock_state_global_write": bind(keyed((*Faaslet).hiUnlockStateGlobal)),
		// --- dynamic linking ---
		"dlopen":  bind((*Faaslet).hiDlopen),
		"dlsym":   bind((*Faaslet).hiDlsym),
		"dlclose": bind((*Faaslet).hiDlclose),
		"dlcall":  bind((*Faaslet).hiDlcall),
		// --- memory ---
		"mmap":   bind((*Faaslet).hiMmap),
		"munmap": bind((*Faaslet).hiMunmap),
		"brk":    bind((*Faaslet).hiBrk),
		"sbrk":   bind((*Faaslet).hiSbrk),
		// --- network ---
		"socket":  bind((*Faaslet).hiSocket),
		"connect": bind((*Faaslet).hiConnect),
		"bind":    bind((*Faaslet).hiBind),
		"send":    bind((*Faaslet).hiSend),
		"recv":    bind((*Faaslet).hiRecv),
		// --- file I/O ---
		"open":      bind((*Faaslet).hiOpen),
		"close":     bind((*Faaslet).hiClose),
		"dup":       bind((*Faaslet).hiDup),
		"read":      bind((*Faaslet).hiRead),
		"write":     bind((*Faaslet).hiWrite),
		"seek":      bind((*Faaslet).hiSeek),
		"stat_size": bind((*Faaslet).hiStatSize),
		// --- misc ---
		"gettime":   bind((*Faaslet).hiGettime),
		"getrandom": bind((*Faaslet).hiGetrandom),
	}}
}

// hostMethod is a host call with its Faaslet made explicit: a method
// expression such as (*Faaslet).hiRead, or a helper built once at init.
type hostMethod func(f *Faaslet, args []uint64) ([]uint64, error)

// bind turns a host method into a table entry that runs it on the calling
// instance's owner.
func bind(m hostMethod) wavm.HostFunc {
	return func(inst *wavm.Instance, args []uint64) ([]uint64, error) {
		return m(inst.Owner().(*Faaslet), args)
	}
}

func i32(v uint64) int32      { return wavm.DecodeI32(v) }
func reti32(v int32) []uint64 { return []uint64{wavm.EncodeI32(v)} }

// guestString reads a (ptr, len) string from guest memory.
func (f *Faaslet) guestString(ptr, n uint64) (string, error) {
	b, err := f.mem.ReadBytes(uint32(ptr), int(i32(n)))
	if err != nil {
		return "", fmt.Errorf("core: bad guest string pointer: %w", err)
	}
	return string(b), nil
}

// --- Calls ---

// read_call_input(buf i32, len i32) -> i32
// len == 0 queries the input size; otherwise copies min(len, size) bytes.
func (f *Faaslet) hiReadCallInput(args []uint64) ([]uint64, error) {
	n := int(i32(args[1]))
	if n == 0 {
		return reti32(int32(len(f.input))), nil
	}
	if n > len(f.input) {
		n = len(f.input)
	}
	if err := f.mem.WriteBytes(uint32(args[0]), f.input[:n]); err != nil {
		return nil, err
	}
	return reti32(int32(n)), nil
}

// write_call_output(ptr i32, len i32)
func (f *Faaslet) hiWriteCallOutput(args []uint64) ([]uint64, error) {
	b, err := f.mem.ReadBytes(uint32(args[0]), int(i32(args[1])))
	if err != nil {
		return nil, err
	}
	f.output = b
	return nil, nil
}

// chain_call(namePtr, nameLen, inPtr, inLen) -> i32 call id
func (f *Faaslet) hiChainCall(args []uint64) ([]uint64, error) {
	name, err := f.guestString(args[0], args[1])
	if err != nil {
		return nil, err
	}
	input, err := f.mem.ReadBytes(uint32(args[2]), int(i32(args[3])))
	if err != nil {
		return nil, err
	}
	id, err := f.chain(name, input)
	if err != nil {
		return nil, err
	}
	return reti32(int32(id)), nil
}

// await_call(id i32) -> i32 return code
func (f *Faaslet) hiAwaitCall(args []uint64) ([]uint64, error) {
	ret, err := f.await(uint64(uint32(args[0])))
	if errors.Is(err, errNoChainer) {
		return nil, err
	}
	// A failed chained call yields a non-zero return code, it does not
	// abort the awaiting function.
	if err != nil && ret == 0 {
		ret = -1
	}
	return reti32(ret), nil
}

// get_call_output(id, buf, len) -> i32; len == 0 queries the size.
func (f *Faaslet) hiGetCallOutput(args []uint64) ([]uint64, error) {
	out, err := f.callOutput(uint64(uint32(args[0])))
	if err != nil {
		return nil, err
	}
	n := int(i32(args[2]))
	if n == 0 {
		return reti32(int32(len(out))), nil
	}
	if n > len(out) {
		n = len(out)
	}
	if err := f.mem.WriteBytes(uint32(args[1]), out[:n]); err != nil {
		return nil, err
	}
	return reti32(int32(n)), nil
}

// --- State ---

// keyedMethod is a state call once its leading (keyPtr, keyLen) pair is
// decoded: the key, then the call's remaining arguments.
type keyedMethod func(f *Faaslet, key string, args []uint64) ([]uint64, error)

// keyed decodes a state call's key and runs m on it.
func keyed(m keyedMethod) hostMethod {
	return func(f *Faaslet, args []uint64) ([]uint64, error) {
		key, err := f.guestString(args[0], args[1])
		if err != nil {
			return nil, err
		}
		return m(f, key, args[2:])
	}
}

// sizeHint reads a guest's value size, where 0 means discover it.
func sizeHint(n int) int {
	if n == 0 {
		return -1
	}
	return n
}

// statePointer maps v's shared segment into this Faaslet's linear address
// space and returns the guest pointer to byte off of the value: a pointer
// that aliases host-shared memory with zero copies.
func (f *Faaslet) statePointer(v *state.Value, off int, err error) ([]uint64, error) {
	if err != nil {
		return nil, err
	}
	base, err := f.mapState(v)
	if err != nil {
		return nil, err
	}
	return reti32(int32(base) + int32(off)), nil
}

// get_state(keyPtr, keyLen, size) -> i32 guest pointer to the mapped value.
func (f *Faaslet) hiGetState(key string, args []uint64) ([]uint64, error) {
	v, err := f.getState(key, sizeHint(int(i32(args[0]))))
	return f.statePointer(v, 0, err)
}

// get_state_offset(keyPtr, keyLen, off, len) -> i32 guest pointer to the
// chunk; only the covering chunks are replicated locally.
func (f *Faaslet) hiGetStateOffset(key string, args []uint64) ([]uint64, error) {
	off := int(i32(args[0]))
	v, err := f.getStateChunk(key, off, int(i32(args[1])))
	return f.statePointer(v, off, err)
}

// set_state(keyPtr, keyLen, valPtr, valLen)
func (f *Faaslet) hiSetState(key string, args []uint64) ([]uint64, error) {
	val, err := f.mem.ReadBytes(uint32(args[0]), int(i32(args[1])))
	if err != nil {
		return nil, err
	}
	v, err := f.value(key, sizeHint(len(val)))
	if err != nil {
		return nil, err
	}
	return nil, v.Set(val)
}

// set_state_offset(keyPtr, keyLen, off, valPtr, valLen)
func (f *Faaslet) hiSetStateOffset(key string, args []uint64) ([]uint64, error) {
	val, err := f.mem.ReadBytes(uint32(args[1]), int(i32(args[2])))
	if err != nil {
		return nil, err
	}
	v, err := f.value(key, -1)
	if err != nil {
		return nil, err
	}
	return nil, v.SetAt(int(i32(args[0])), val)
}

// push_state(keyPtr, keyLen)
func (f *Faaslet) hiPushState(key string, _ []uint64) ([]uint64, error) {
	return nil, f.pushState(key)
}

// pull_state(keyPtr, keyLen)
func (f *Faaslet) hiPullState(key string, _ []uint64) ([]uint64, error) {
	return nil, f.pullState(key)
}

// push_state_offset(keyPtr, keyLen, off, len)
func (f *Faaslet) hiPushStateOffset(key string, args []uint64) ([]uint64, error) {
	return nil, f.pushStateChunk(key, int(i32(args[0])), int(i32(args[1])))
}

// pull_state_offset(keyPtr, keyLen, off, len)
func (f *Faaslet) hiPullStateOffset(key string, args []uint64) ([]uint64, error) {
	_, err := f.getStateChunk(key, int(i32(args[0])), int(i32(args[1])))
	return nil, err
}

// append_state(keyPtr, keyLen, valPtr, valLen)
func (f *Faaslet) hiAppendState(key string, args []uint64) ([]uint64, error) {
	val, err := f.mem.ReadBytes(uint32(args[0]), int(i32(args[1])))
	if err != nil {
		return nil, err
	}
	return nil, f.appendState(key, val)
}

// state_size(keyPtr, keyLen) -> i32 global size of the value.
func (f *Faaslet) hiStateSize(key string, _ []uint64) ([]uint64, error) {
	if f.env.State == nil {
		return nil, errNoState
	}
	n, err := f.env.State.Global().Len(key)
	if err != nil {
		return nil, err
	}
	return reti32(int32(n)), nil
}

// localLock makes lock_state_read/write and unlock_state_read/write:
// (keyPtr, keyLen).
func localLock(op func(*state.Value)) keyedMethod {
	return func(f *Faaslet, key string, _ []uint64) ([]uint64, error) {
		v, err := f.value(key, -1)
		if err != nil {
			return nil, err
		}
		op(v)
		return nil, nil
	}
}

// lockStateGlobal makes lock_state_global_read (write false) and
// lock_state_global_write: (keyPtr, keyLen).
func lockStateGlobal(write bool) keyedMethod {
	return func(f *Faaslet, key string, _ []uint64) ([]uint64, error) {
		return nil, f.lockGlobal(key, write)
	}
}

func (f *Faaslet) hiUnlockStateGlobal(key string, _ []uint64) ([]uint64, error) {
	return nil, f.unlockGlobal(key)
}

// --- Dynamic linking ---

// library is one dlopen'd module sharing the parent's linear memory.
type library struct {
	inst *wavm.Instance
	mod  *wavm.Module
	open bool
}

// dlsym handles pack (library index, function index) into an int32.
type symbol struct {
	lib  int
	fidx int
}

// dlopen(pathPtr, pathLen) -> i32 handle, -1 on failure. The path names a
// wavm object file in the Faaslet filesystem (global tier), which has
// already passed validation at upload. The library shares the parent's
// linear memory, per WebAssembly dynamic-linking conventions.
func (f *Faaslet) hiDlopen(args []uint64) ([]uint64, error) {
	path, err := f.guestString(args[0], args[1])
	if err != nil {
		return nil, err
	}
	blob, err := f.fs.ReadFile(path)
	if err != nil {
		return reti32(-1), nil
	}
	mod, err := wavm.DecodeObject(blob)
	if err != nil {
		return reti32(-1), nil
	}
	// Apply the library's data segments into the shared memory; growth
	// happens against the parent's limit.
	if need := mod.MemMin; need > f.mem.Pages() {
		if _, err := f.mem.Grow(need - f.mem.Pages()); err != nil {
			return reti32(-1), nil
		}
	}
	for _, d := range mod.Data {
		if err := f.mem.WriteBytes(d.Offset, d.Bytes); err != nil {
			return reti32(-1), nil
		}
	}
	inst, err := wavm.Instantiate(mod, hostTable, wavm.WithMemory(f.mem), wavm.WithOwner(f))
	if err != nil {
		return reti32(-1), nil
	}
	f.libs = append(f.libs, &library{inst: inst, mod: mod, open: true})
	return reti32(int32(len(f.libs) - 1)), nil
}

// dlsym(handle, namePtr, nameLen) -> i32 symbol id, -1 on failure.
func (f *Faaslet) hiDlsym(args []uint64) ([]uint64, error) {
	h := int(i32(args[0]))
	if h < 0 || h >= len(f.libs) || !f.libs[h].open {
		return reti32(-1), nil
	}
	name, err := f.guestString(args[1], args[2])
	if err != nil {
		return nil, err
	}
	fidx, ok := f.libs[h].mod.ExportedFunc(name)
	if !ok {
		return reti32(-1), nil
	}
	// Pack (lib, func) into the symbol id: 12 bits of library, 19 of index.
	return reti32(int32(h<<19 | fidx)), nil
}

// dlclose(handle) -> i32
func (f *Faaslet) hiDlclose(args []uint64) ([]uint64, error) {
	h := int(i32(args[0]))
	if h < 0 || h >= len(f.libs) || !f.libs[h].open {
		return reti32(-1), nil
	}
	f.libs[h].open = false
	return reti32(0), nil
}

// dlcall(sym, argsPtr, argc, retPtr) -> i32 status. Arguments are packed
// little-endian u64s in guest memory; a single u64 result is written to
// retPtr when the callee returns one. Because the library shares the
// parent's memory, pointers passed this way are valid on both sides.
func (f *Faaslet) hiDlcall(args []uint64) ([]uint64, error) {
	sym := int(i32(args[0]))
	lib := sym >> 19
	fidx := sym & ((1 << 19) - 1)
	if lib < 0 || lib >= len(f.libs) || !f.libs[lib].open {
		return reti32(-1), nil
	}
	argc := int(i32(args[2]))
	callArgs := make([]uint64, argc)
	for i := 0; i < argc; i++ {
		v, err := f.mem.ReadU64(uint32(args[1]) + uint32(i*8))
		if err != nil {
			return nil, err
		}
		callArgs[i] = v
	}
	res, err := f.libs[lib].inst.CallIndex(fidx, callArgs...)
	if err != nil {
		return nil, err
	}
	if len(res) == 1 {
		if err := f.mem.WriteU64(uint32(args[3]), res[0]); err != nil {
			return nil, err
		}
	}
	return reti32(0), nil
}

// --- Memory ---

// mmap(len) -> i32 base address, -1 on failure. Grows the private region;
// the paper's Faaslets likewise use mmap only to grow (Table 2).
func (f *Faaslet) hiMmap(args []uint64) ([]uint64, error) {
	n := int(i32(args[0]))
	if n <= 0 {
		return reti32(-1), nil
	}
	pages := (n + wamem.PageSize - 1) / wamem.PageSize
	prev, err := f.mem.Grow(pages)
	if err != nil {
		return reti32(-1), nil
	}
	return reti32(int32(prev * wamem.PageSize)), nil
}

// munmap(addr, len) -> i32. Linear memory never shrinks in wasm; success.
func (f *Faaslet) hiMunmap(_ []uint64) ([]uint64, error) {
	return reti32(0), nil
}

// brk(addr) -> i32 0 on success, -1 past the per-function limit.
func (f *Faaslet) hiBrk(args []uint64) ([]uint64, error) {
	if err := f.mem.SetBrk(uint32(args[0])); err != nil {
		return reti32(-1), nil
	}
	return reti32(0), nil
}

// sbrk(delta) -> i32 previous break, -1 past the limit.
func (f *Faaslet) hiSbrk(args []uint64) ([]uint64, error) {
	old := f.mem.Brk()
	delta := int64(i32(args[0]))
	if delta != 0 {
		target := int64(old) + delta
		if target < 0 {
			return reti32(-1), nil
		}
		if err := f.mem.SetBrk(uint32(target)); err != nil {
			return reti32(-1), nil
		}
	}
	return reti32(int32(old)), nil
}

// --- Network ---

func (f *Faaslet) hiSocket(args []uint64) ([]uint64, error) {
	fd, err := f.net.Socket(int(i32(args[0])), int(i32(args[1])))
	if err != nil {
		return reti32(-1), nil
	}
	return reti32(fd), nil
}

func (f *Faaslet) hiConnect(args []uint64) ([]uint64, error) {
	addr, err := f.guestString(args[1], args[2])
	if err != nil {
		return nil, err
	}
	if err := f.net.Connect(int32(i32(args[0])), addr); err != nil {
		return reti32(-1), nil
	}
	return reti32(0), nil
}

func (f *Faaslet) hiBind(args []uint64) ([]uint64, error) {
	addr, err := f.guestString(args[1], args[2])
	if err != nil {
		return nil, err
	}
	if err := f.net.Bind(int32(i32(args[0])), addr); err != nil {
		return reti32(-1), nil
	}
	return reti32(0), nil
}

func (f *Faaslet) hiSend(args []uint64) ([]uint64, error) {
	data, err := f.mem.ReadBytes(uint32(args[1]), int(i32(args[2])))
	if err != nil {
		return nil, err
	}
	n, err := f.net.Send(int32(i32(args[0])), data)
	if err != nil {
		return reti32(-1), nil
	}
	return reti32(int32(n)), nil
}

func (f *Faaslet) hiRecv(args []uint64) ([]uint64, error) {
	n := int(i32(args[2]))
	buf := make([]byte, n)
	got, err := f.net.Recv(int32(i32(args[0])), buf)
	if err != nil && got == 0 {
		return reti32(-1), nil
	}
	if err := f.mem.WriteBytes(uint32(args[1]), buf[:got]); err != nil {
		return nil, err
	}
	return reti32(int32(got)), nil
}

// --- File I/O ---

func (f *Faaslet) hiOpen(args []uint64) ([]uint64, error) {
	path, err := f.guestString(args[0], args[1])
	if err != nil {
		return nil, err
	}
	fd, err := f.fs.Open(path, int(i32(args[2])))
	if err != nil {
		return reti32(-1), nil
	}
	return reti32(fd), nil
}

// hiClose dispatches on the descriptor space: sockets and files share the
// POSIX close entry point.
func (f *Faaslet) hiClose(args []uint64) ([]uint64, error) {
	fd := i32(args[0])
	var err error
	if fd >= socketFDBase {
		err = f.net.CloseSocket(fd)
	} else {
		err = f.fs.Close(fd)
	}
	if err != nil {
		return reti32(-1), nil
	}
	return reti32(0), nil
}

func (f *Faaslet) hiDup(args []uint64) ([]uint64, error) {
	nfd, err := f.fs.Dup(i32(args[0]))
	if err != nil {
		return reti32(-1), nil
	}
	return reti32(nfd), nil
}

func (f *Faaslet) hiRead(args []uint64) ([]uint64, error) {
	fd := i32(args[0])
	n := int(i32(args[2]))
	buf := make([]byte, n)
	var got int
	var err error
	if fd >= socketFDBase {
		got, err = f.net.Recv(fd, buf)
	} else {
		got, err = f.fs.Read(fd, buf)
	}
	if err == io.EOF {
		return reti32(0), nil
	}
	if err != nil {
		return reti32(-1), nil
	}
	if err := f.mem.WriteBytes(uint32(args[1]), buf[:got]); err != nil {
		return nil, err
	}
	return reti32(int32(got)), nil
}

func (f *Faaslet) hiWrite(args []uint64) ([]uint64, error) {
	fd := i32(args[0])
	data, err := f.mem.ReadBytes(uint32(args[1]), int(i32(args[2])))
	if err != nil {
		return nil, err
	}
	switch {
	case fd == stdoutFD || fd == stderrFD:
		// Captured as call output when the guest writes nothing explicit —
		// convenient for printf-style functions.
		f.output = append(f.output, data...)
		return reti32(int32(len(data))), nil
	case fd >= socketFDBase:
		n, err := f.net.Send(fd, data)
		if err != nil {
			return reti32(-1), nil
		}
		return reti32(int32(n)), nil
	default:
		n, err := f.fs.Write(fd, data)
		if err != nil {
			return reti32(-1), nil
		}
		return reti32(int32(n)), nil
	}
}

func (f *Faaslet) hiSeek(args []uint64) ([]uint64, error) {
	pos, err := f.fs.Seek(i32(args[0]), int64(i32(args[1])), int(i32(args[2])))
	if err != nil {
		return reti32(-1), nil
	}
	return reti32(int32(pos)), nil
}

// stat_size(pathPtr, pathLen, sizeOutPtr) -> i32 0 if present (size written
// to sizeOutPtr as u32), -1 otherwise. A deliberately narrow stat: the host
// interface exposes only what serverless code needs.
func (f *Faaslet) hiStatSize(args []uint64) ([]uint64, error) {
	path, err := f.guestString(args[0], args[1])
	if err != nil {
		return nil, err
	}
	info, err := f.fs.Stat(path)
	if err != nil {
		if errors.Is(err, vfs.ErrNotFound) {
			return reti32(-1), nil
		}
		return nil, err
	}
	var sz [4]byte
	binary.LittleEndian.PutUint32(sz[:], uint32(info.Size))
	if err := f.mem.WriteBytes(uint32(args[2]), sz[:]); err != nil {
		return nil, err
	}
	return reti32(0), nil
}

// --- Misc ---

// gettime() -> i64 nanoseconds on the per-user monotonic clock.
func (f *Faaslet) hiGettime(_ []uint64) ([]uint64, error) {
	return []uint64{uint64(f.env.clock().Now().Sub(f.birth).Nanoseconds())}, nil
}

// getrandom(buf, len) -> i32 bytes written, from the Faaslet's PRNG.
func (f *Faaslet) hiGetrandom(args []uint64) ([]uint64, error) {
	n := int(i32(args[1]))
	if n < 0 {
		return reti32(-1), nil
	}
	b := make([]byte, n)
	f.fillRandom(b)
	if err := f.mem.WriteBytes(uint32(args[0]), b); err != nil {
		return nil, err
	}
	return reti32(int32(n)), nil
}
