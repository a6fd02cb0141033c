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

func (f *Faaslet) hostModules() map[string]wavm.HostModule {
	m := wavm.HostModule{}
	// --- calls ---
	m["read_call_input"] = f.hiReadCallInput
	m["write_call_output"] = f.hiWriteCallOutput
	m["chain_call"] = f.hiChainCall
	m["await_call"] = f.hiAwaitCall
	m["get_call_output"] = f.hiGetCallOutput
	// --- state ---
	m["get_state"] = f.hiGetState
	m["get_state_offset"] = f.hiGetStateOffset
	m["set_state"] = f.hiSetState
	m["set_state_offset"] = f.hiSetStateOffset
	m["push_state"] = f.hiPushState
	m["pull_state"] = f.hiPullState
	m["push_state_offset"] = f.hiPushStateOffset
	m["pull_state_offset"] = f.hiPullStateOffset
	m["append_state"] = f.hiAppendState
	m["state_size"] = f.hiStateSize
	m["lock_state_read"] = f.hiLockStateRead
	m["lock_state_write"] = f.hiLockStateWrite
	m["unlock_state_read"] = f.hiUnlockStateRead
	m["unlock_state_write"] = f.hiUnlockStateWrite
	m["lock_state_global_read"] = f.hiLockStateGlobal(false)
	m["lock_state_global_write"] = f.hiLockStateGlobal(true)
	m["unlock_state_global_read"] = f.hiUnlockStateGlobal
	m["unlock_state_global_write"] = f.hiUnlockStateGlobal
	// --- dynamic linking ---
	m["dlopen"] = f.hiDlopen
	m["dlsym"] = f.hiDlsym
	m["dlclose"] = f.hiDlclose
	m["dlcall"] = f.hiDlcall
	// --- memory ---
	m["mmap"] = f.hiMmap
	m["munmap"] = f.hiMunmap
	m["brk"] = f.hiBrk
	m["sbrk"] = f.hiSbrk
	// --- network ---
	m["socket"] = f.hiSocket
	m["connect"] = f.hiConnect
	m["bind"] = f.hiBind
	m["send"] = f.hiSend
	m["recv"] = f.hiRecv
	// --- file I/O ---
	m["open"] = f.hiOpen
	m["close"] = f.hiClose
	m["dup"] = f.hiDup
	m["read"] = f.hiRead
	m["write"] = f.hiWrite
	m["seek"] = f.hiSeek
	m["stat_size"] = f.hiStatSize
	// --- misc ---
	m["gettime"] = f.hiGettime
	m["getrandom"] = f.hiGetrandom
	return map[string]wavm.HostModule{"faasm": m}
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
func (f *Faaslet) hiReadCallInput(_ *wavm.Instance, args []uint64) ([]uint64, error) {
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
func (f *Faaslet) hiWriteCallOutput(_ *wavm.Instance, args []uint64) ([]uint64, error) {
	b, err := f.mem.ReadBytes(uint32(args[0]), int(i32(args[1])))
	if err != nil {
		return nil, err
	}
	f.output = b
	return nil, nil
}

// chain_call(namePtr, nameLen, inPtr, inLen) -> i32 call id
func (f *Faaslet) hiChainCall(_ *wavm.Instance, args []uint64) ([]uint64, error) {
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
func (f *Faaslet) hiAwaitCall(_ *wavm.Instance, args []uint64) ([]uint64, error) {
	if f.env.Chain == nil {
		return nil, errors.New("core: no chainer configured")
	}
	ret, err := f.env.Chain.Await(uint64(uint32(args[0])))
	if err != nil {
		// A failed chained call yields a non-zero return code, it does not
		// abort the awaiting function.
		if ret == 0 {
			ret = -1
		}
	}
	return reti32(ret), nil
}

// get_call_output(id, buf, len) -> i32; len == 0 queries the size.
func (f *Faaslet) hiGetCallOutput(_ *wavm.Instance, args []uint64) ([]uint64, error) {
	if f.env.Chain == nil {
		return nil, errors.New("core: no chainer configured")
	}
	out, err := f.env.Chain.Output(uint64(uint32(args[0])))
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

// stateValue resolves a key with the given size hint (0 = discover).
func (f *Faaslet) stateValue(keyPtr, keyLen uint64, size int) (stateHandle, error) {
	if f.env.State == nil {
		return stateHandle{}, errors.New("core: no state tier configured")
	}
	key, err := f.guestString(keyPtr, keyLen)
	if err != nil {
		return stateHandle{}, err
	}
	if size == 0 {
		size = -1
	}
	v, err := f.env.State.Value(key, size)
	if err != nil {
		return stateHandle{}, err
	}
	return stateHandle{key: key, v: v}, nil
}

type stateHandle struct {
	key string
	v   *state.Value
}

// get_state(keyPtr, keyLen, size) -> i32 guest pointer to the mapped value.
// The value's shared segment is spliced into this Faaslet's linear address
// space: the returned pointer aliases host-shared memory with zero copies.
func (f *Faaslet) hiGetState(_ *wavm.Instance, args []uint64) ([]uint64, error) {
	h, err := f.stateValue(args[0], args[1], int(i32(args[2])))
	if err != nil {
		return nil, err
	}
	if err := h.v.EnsurePulled(0, h.v.Size()); err != nil {
		return nil, err
	}
	base, err := f.mapState(h.v)
	if err != nil {
		return nil, err
	}
	return reti32(int32(base)), nil
}

// get_state_offset(keyPtr, keyLen, off, len) -> i32 guest pointer to the
// chunk; only the covering chunks are replicated locally.
func (f *Faaslet) hiGetStateOffset(_ *wavm.Instance, args []uint64) ([]uint64, error) {
	h, err := f.stateValue(args[0], args[1], 0)
	if err != nil {
		return nil, err
	}
	off, n := int(i32(args[2])), int(i32(args[3]))
	if err := h.v.EnsurePulled(off, n); err != nil {
		return nil, err
	}
	base, err := f.mapState(h.v)
	if err != nil {
		return nil, err
	}
	return reti32(int32(base) + int32(off)), nil
}

// set_state(keyPtr, keyLen, valPtr, valLen)
func (f *Faaslet) hiSetState(_ *wavm.Instance, args []uint64) ([]uint64, error) {
	val, err := f.mem.ReadBytes(uint32(args[2]), int(i32(args[3])))
	if err != nil {
		return nil, err
	}
	h, err := f.stateValue(args[0], args[1], len(val))
	if err != nil {
		return nil, err
	}
	return nil, h.v.Set(val)
}

// set_state_offset(keyPtr, keyLen, off, valPtr, valLen)
func (f *Faaslet) hiSetStateOffset(_ *wavm.Instance, args []uint64) ([]uint64, error) {
	val, err := f.mem.ReadBytes(uint32(args[3]), int(i32(args[4])))
	if err != nil {
		return nil, err
	}
	h, err := f.stateValue(args[0], args[1], 0)
	if err != nil {
		return nil, err
	}
	return nil, h.v.SetAt(int(i32(args[2])), val)
}

// push_state(keyPtr, keyLen)
func (f *Faaslet) hiPushState(_ *wavm.Instance, args []uint64) ([]uint64, error) {
	h, err := f.stateValue(args[0], args[1], 0)
	if err != nil {
		return nil, err
	}
	return nil, h.v.Push()
}

// pull_state(keyPtr, keyLen)
func (f *Faaslet) hiPullState(_ *wavm.Instance, args []uint64) ([]uint64, error) {
	h, err := f.stateValue(args[0], args[1], 0)
	if err != nil {
		return nil, err
	}
	return nil, h.v.Pull()
}

// push_state_offset(keyPtr, keyLen, off, len)
func (f *Faaslet) hiPushStateOffset(_ *wavm.Instance, args []uint64) ([]uint64, error) {
	h, err := f.stateValue(args[0], args[1], 0)
	if err != nil {
		return nil, err
	}
	return nil, h.v.PushChunk(int(i32(args[2])), int(i32(args[3])))
}

// pull_state_offset(keyPtr, keyLen, off, len)
func (f *Faaslet) hiPullStateOffset(_ *wavm.Instance, args []uint64) ([]uint64, error) {
	h, err := f.stateValue(args[0], args[1], 0)
	if err != nil {
		return nil, err
	}
	return nil, h.v.PullChunk(int(i32(args[2])), int(i32(args[3])))
}

// append_state(keyPtr, keyLen, valPtr, valLen)
func (f *Faaslet) hiAppendState(_ *wavm.Instance, args []uint64) ([]uint64, error) {
	if f.env.State == nil {
		return nil, errors.New("core: no state tier configured")
	}
	key, err := f.guestString(args[0], args[1])
	if err != nil {
		return nil, err
	}
	val, err := f.mem.ReadBytes(uint32(args[2]), int(i32(args[3])))
	if err != nil {
		return nil, err
	}
	return nil, f.env.State.Append(key, val)
}

// state_size(keyPtr, keyLen) -> i32 global size of the value.
func (f *Faaslet) hiStateSize(_ *wavm.Instance, args []uint64) ([]uint64, error) {
	if f.env.State == nil {
		return nil, errors.New("core: no state tier configured")
	}
	key, err := f.guestString(args[0], args[1])
	if err != nil {
		return nil, err
	}
	n, err := f.env.State.Global().Len(key)
	if err != nil {
		return nil, err
	}
	return reti32(int32(n)), nil
}

func (f *Faaslet) hiLockStateRead(_ *wavm.Instance, args []uint64) ([]uint64, error) {
	h, err := f.stateValue(args[0], args[1], 0)
	if err != nil {
		return nil, err
	}
	h.v.LockRead()
	return nil, nil
}

func (f *Faaslet) hiLockStateWrite(_ *wavm.Instance, args []uint64) ([]uint64, error) {
	h, err := f.stateValue(args[0], args[1], 0)
	if err != nil {
		return nil, err
	}
	h.v.LockWrite()
	return nil, nil
}

func (f *Faaslet) hiUnlockStateRead(_ *wavm.Instance, args []uint64) ([]uint64, error) {
	h, err := f.stateValue(args[0], args[1], 0)
	if err != nil {
		return nil, err
	}
	h.v.UnlockRead()
	return nil, nil
}

func (f *Faaslet) hiUnlockStateWrite(_ *wavm.Instance, args []uint64) ([]uint64, error) {
	h, err := f.stateValue(args[0], args[1], 0)
	if err != nil {
		return nil, err
	}
	h.v.UnlockWrite()
	return nil, nil
}

func (f *Faaslet) hiLockStateGlobal(write bool) wavm.HostFunc {
	return func(_ *wavm.Instance, args []uint64) ([]uint64, error) {
		if f.env.State == nil {
			return nil, errors.New("core: no state tier configured")
		}
		key, err := f.guestString(args[0], args[1])
		if err != nil {
			return nil, err
		}
		tok, err := f.env.State.LockGlobal(key, write)
		if err != nil {
			return nil, err
		}
		f.globalLockTokens[key] = tok
		return nil, nil
	}
}

func (f *Faaslet) hiUnlockStateGlobal(_ *wavm.Instance, args []uint64) ([]uint64, error) {
	key, err := f.guestString(args[0], args[1])
	if err != nil {
		return nil, err
	}
	tok, ok := f.globalLockTokens[key]
	if !ok {
		return nil, fmt.Errorf("core: no global lock held on %s", key)
	}
	delete(f.globalLockTokens, key)
	return nil, f.env.State.UnlockGlobal(key, tok)
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
func (f *Faaslet) hiDlopen(_ *wavm.Instance, args []uint64) ([]uint64, error) {
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
	inst, err := wavm.Instantiate(mod, f.hostModules(), wavm.WithMemory(f.mem))
	if err != nil {
		return reti32(-1), nil
	}
	f.libs = append(f.libs, &library{inst: inst, mod: mod, open: true})
	return reti32(int32(len(f.libs) - 1)), nil
}

// dlsym(handle, namePtr, nameLen) -> i32 symbol id, -1 on failure.
func (f *Faaslet) hiDlsym(_ *wavm.Instance, args []uint64) ([]uint64, error) {
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
func (f *Faaslet) hiDlclose(_ *wavm.Instance, args []uint64) ([]uint64, error) {
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
func (f *Faaslet) hiDlcall(_ *wavm.Instance, args []uint64) ([]uint64, error) {
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
func (f *Faaslet) hiMmap(_ *wavm.Instance, args []uint64) ([]uint64, error) {
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
func (f *Faaslet) hiMunmap(_ *wavm.Instance, _ []uint64) ([]uint64, error) {
	return reti32(0), nil
}

// brk(addr) -> i32 0 on success, -1 past the per-function limit.
func (f *Faaslet) hiBrk(_ *wavm.Instance, args []uint64) ([]uint64, error) {
	if err := f.mem.SetBrk(uint32(args[0])); err != nil {
		return reti32(-1), nil
	}
	return reti32(0), nil
}

// sbrk(delta) -> i32 previous break, -1 past the limit.
func (f *Faaslet) hiSbrk(_ *wavm.Instance, args []uint64) ([]uint64, error) {
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

func (f *Faaslet) hiSocket(_ *wavm.Instance, args []uint64) ([]uint64, error) {
	fd, err := f.net.Socket(int(i32(args[0])), int(i32(args[1])))
	if err != nil {
		return reti32(-1), nil
	}
	return reti32(fd), nil
}

func (f *Faaslet) hiConnect(_ *wavm.Instance, args []uint64) ([]uint64, error) {
	addr, err := f.guestString(args[1], args[2])
	if err != nil {
		return nil, err
	}
	if err := f.net.Connect(int32(i32(args[0])), addr); err != nil {
		return reti32(-1), nil
	}
	return reti32(0), nil
}

func (f *Faaslet) hiBind(_ *wavm.Instance, args []uint64) ([]uint64, error) {
	addr, err := f.guestString(args[1], args[2])
	if err != nil {
		return nil, err
	}
	if err := f.net.Bind(int32(i32(args[0])), addr); err != nil {
		return reti32(-1), nil
	}
	return reti32(0), nil
}

func (f *Faaslet) hiSend(_ *wavm.Instance, args []uint64) ([]uint64, error) {
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

func (f *Faaslet) hiRecv(_ *wavm.Instance, args []uint64) ([]uint64, error) {
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

func (f *Faaslet) hiOpen(_ *wavm.Instance, args []uint64) ([]uint64, error) {
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
func (f *Faaslet) hiClose(_ *wavm.Instance, args []uint64) ([]uint64, error) {
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

func (f *Faaslet) hiDup(_ *wavm.Instance, args []uint64) ([]uint64, error) {
	nfd, err := f.fs.Dup(i32(args[0]))
	if err != nil {
		return reti32(-1), nil
	}
	return reti32(nfd), nil
}

func (f *Faaslet) hiRead(_ *wavm.Instance, args []uint64) ([]uint64, error) {
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

func (f *Faaslet) hiWrite(_ *wavm.Instance, args []uint64) ([]uint64, error) {
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

func (f *Faaslet) hiSeek(_ *wavm.Instance, args []uint64) ([]uint64, error) {
	pos, err := f.fs.Seek(i32(args[0]), int64(i32(args[1])), int(i32(args[2])))
	if err != nil {
		return reti32(-1), nil
	}
	return reti32(int32(pos)), nil
}

// stat_size(pathPtr, pathLen, sizeOutPtr) -> i32 0 if present (size written
// to sizeOutPtr as u32), -1 otherwise. A deliberately narrow stat: the host
// interface exposes only what serverless code needs.
func (f *Faaslet) hiStatSize(_ *wavm.Instance, args []uint64) ([]uint64, error) {
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
func (f *Faaslet) hiGettime(_ *wavm.Instance, _ []uint64) ([]uint64, error) {
	return []uint64{uint64(f.env.clock().Now().Sub(f.birth).Nanoseconds())}, nil
}

// getrandom(buf, len) -> i32 bytes written, from the Faaslet's PRNG.
func (f *Faaslet) hiGetrandom(_ *wavm.Instance, args []uint64) ([]uint64, error) {
	n := int(i32(args[1]))
	if n < 0 {
		return reti32(-1), nil
	}
	b := make([]byte, n)
	f.rng.Read(b)
	if err := f.mem.WriteBytes(uint32(args[0]), b); err != nil {
		return nil, err
	}
	return reti32(int32(n)), nil
}
