// log.go builds the process-wide structured logger: log/slog with a
// text or JSON handler and a flag-friendly level parser.
package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// ParseLevel maps the flag spellings to slog levels: debug, info, warn,
// error (case-insensitive).
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}

// NewLogger builds a structured logger writing to w. format selects the
// handler: "json" for machine-readable lines, anything else for the
// human-readable text handler.
func NewLogger(w io.Writer, level slog.Level, format string) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	if strings.EqualFold(format, "json") {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}
