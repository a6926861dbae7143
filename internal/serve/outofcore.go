package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/outofcore"
)

// serveOutOfCore handles a request whose operands exceed the LargeWords
// threshold: instead of materializing them for the batch pool, the chunked
// transfer is decoded row band by row band into outofcore stores (files
// under SpoolDir, or accounted in-memory stores), multiplied with the
// tiled algorithm under a bounded in-core workspace, and the result is
// streamed back band by band. Peak in-core usage is therefore the tile
// workspace plus one transfer band, independent of the operand sizes.
//
// The tiled path computes in the logical (column-major) orientation, so
// transposed operands are not offered here — the client holds the operand
// it wants transposed and can stream it in its natural orientation.
func (s *Server) serveOutOfCore(ctx context.Context, w http.ResponseWriter, body io.Reader, hdr *ReqHeader, start time.Time) {
	if hdr.transA().IsTrans() || hdr.transB().IsTrans() {
		s.mBadRequest.Add(1)
		reject(w, http.StatusBadRequest, 0, "serve: out-of-core path supports transA=N, transB=N only")
		return
	}

	spool := ""
	if s.opts.SpoolDir != "" {
		dir, err := os.MkdirTemp(s.opts.SpoolDir, "dgefmm-oo-")
		if err != nil {
			s.mInternal.Add(1)
			reject(w, http.StatusInternalServerError, 0, err.Error())
			return
		}
		defer os.RemoveAll(dir)
		spool = dir
	}
	newStore := func(name string, rows, cols int) (outofcore.Store, func() error, error) {
		if spool == "" {
			return outofcore.NewMemStore(matrix.NewDense(rows, cols)), func() error { return nil }, nil
		}
		fs, err := outofcore.CreateFileStore(filepath.Join(spool, name), rows, cols)
		if err != nil {
			return nil, nil, err
		}
		return fs, fs.Close, nil
	}

	fail := func(code int, counter interface{ Add(int64) }, msg string) {
		counter.Add(1)
		reject(w, code, 0, msg)
	}

	// Band size: match the tile order so the transfer buffer never
	// dwarfs the compute workspace.
	band := outofcore.TileOrder(s.opts.OutOfCoreWords)
	if s.opts.OutOfCoreWords <= 0 {
		band = 256
	}

	aStore, aClose, err := newStore("a.f64", hdr.M, hdr.K)
	if err != nil {
		fail(http.StatusInternalServerError, s.mInternal, err.Error())
		return
	}
	defer aClose()
	bStore, bClose, err := newStore("b.f64", hdr.K, hdr.N)
	if err != nil {
		fail(http.StatusInternalServerError, s.mInternal, err.Error())
		return
	}
	defer bClose()
	cStore, cClose, err := newStore("c.f64", hdr.M, hdr.N)
	if err != nil {
		fail(http.StatusInternalServerError, s.mInternal, err.Error())
		return
	}
	defer cClose()

	if err := streamOperand(body, aStore, band, "A"); err != nil {
		fail(http.StatusBadRequest, s.mBadRequest, err.Error())
		return
	}
	if err := streamOperand(body, bStore, band, "B"); err != nil {
		fail(http.StatusBadRequest, s.mBadRequest, err.Error())
		return
	}
	if hdr.Beta != 0 {
		if err := streamOperand(body, cStore, band, "C"); err != nil {
			fail(http.StatusBadRequest, s.mBadRequest, err.Error())
			return
		}
	}
	if err := ctx.Err(); err != nil {
		fail(http.StatusGatewayTimeout, s.mDeadline, err.Error())
		return
	}

	// Tile products need a private kernel: the default kernels keep
	// packing arenas, and concurrent large requests must not share one.
	cfg := s.ooBase
	cfg.Kernel = blas.CloneKernel(cfg.Kernel)
	if err := outofcore.Multiply(cStore, aStore, bStore, hdr.Alpha, hdr.Beta, &outofcore.Options{
		WorkspaceWords: s.opts.OutOfCoreWords,
		Config:         &cfg,
	}); err != nil {
		fail(http.StatusInternalServerError, s.mInternal, err.Error())
		return
	}
	if err := ctx.Err(); err != nil {
		fail(http.StatusGatewayTimeout, s.mDeadline, err.Error())
		return
	}

	s.mOutOfCore.Add(1)
	s.mOK.Add(1)
	s.mBytesOut.Add(8 * hdr.WordsC())
	elapsed := time.Since(start)
	s.hLatency.Observe(elapsed)
	w.Header().Set("Content-Type", ContentType)
	if err := writeRespHeader(w, &RespHeader{
		Status:    "ok",
		Batched:   1,
		OutOfCore: true,
		ElapsedNs: elapsed.Nanoseconds(),
	}); err != nil {
		s.log.Debug("out-of-core response header write failed", "err", err)
		return
	}
	rr := outofcore.NewRowReader(cStore, band)
	for {
		row, err := rr.ReadRow()
		if err == io.EOF {
			return
		}
		if err != nil {
			s.log.Debug("out-of-core result read failed", "err", err)
			return
		}
		if err := WriteFrame(w, row); err != nil {
			s.log.Debug("out-of-core response write failed", "err", err)
			return
		}
	}
}

// streamOperand decodes one row-major wire frame into a store, one row at
// a time through a RowWriter band.
func streamOperand(body io.Reader, dst outofcore.Store, band int, what string) error {
	rows, cols := dst.Dims()
	w := outofcore.NewRowWriter(dst, band)
	row := make([]float64, cols)
	for i := 0; i < rows; i++ {
		if err := ReadFrameInto(body, row, what); err != nil {
			return &frameError{row: i, err: err}
		}
		if err := w.WriteRow(row); err != nil {
			return err
		}
	}
	return w.Close()
}

// frameError is a truncated out-of-core operand frame; err, from
// ReadFrameInto, names the frame and the word offset within the row.
type frameError struct {
	row int
	err error
}

func (e *frameError) Error() string { return fmt.Sprintf("%v (row %d)", e.err, e.row) }
func (e *frameError) Unwrap() error { return e.err }
