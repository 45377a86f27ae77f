// Package errw holds raw sentinel identity and type assertions on
// errors: wrapcheck makes every call chain wrap with %w, so each one
// is a latent bug.
package errw

import (
	"errors"
	"io"
)

var ErrTooStale = errors.New("errw: too stale")

func Check(err error) bool {
	if err == ErrTooStale { // want `use errors\.Is\(err, ErrTooStale\)`
		return true
	}
	if err != io.EOF { // want `use errors\.Is\(err, io\.EOF\)`
		return false
	}
	return errors.Is(err, ErrTooStale) // compliant
}

type ParseError struct{ Line int }

func (e *ParseError) Error() string { return "errw: parse" }

func Classify(err error) int {
	if pe, ok := err.(*ParseError); ok { // want `use errors\.As`
		return pe.Line
	}
	switch err.(type) {
	case *ParseError: // want `use errors\.As`
		return 1
	}
	var pe *ParseError
	if errors.As(err, &pe) { // compliant
		return pe.Line
	}
	return 0
}

type UnavailableError struct{ Cause error }

func (e *UnavailableError) Error() string { return "errw: unavailable" }

// Is implements the errors.Is protocol — the one place raw identity
// is the point, so nothing here is flagged.
func (e *UnavailableError) Is(err error) bool {
	return err == ErrTooStale
}

// syncDirRefused is vfs.SyncDir's refusal test by identity
// (internal/vfs/vfs.go): (*os.File).Sync wraps the refusal in an
// *os.PathError, so == never matches and a filesystem that cannot fsync
// directories fails every Open. Linux fsyncs directories, so no test
// takes the path.
func syncDirRefused(err error) bool {
	return err == errors.ErrUnsupported // want `use errors\.Is\(err, errors\.ErrUnsupported\)`
}
