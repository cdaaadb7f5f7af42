package flnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"calibre/internal/fl"
	"calibre/internal/partition"
)

// ClientConfig configures a federated client process.
type ClientConfig struct {
	// Addr is the server address to dial.
	Addr string
	// ClientID must be unique across the federation.
	ClientID int
	// Data is the client's local partition.
	Data *partition.Client
	// Trainer and Personalizer implement the method's client side.
	Trainer      fl.Trainer
	Personalizer fl.Personalizer
	// Seed derives the client's deterministic RNG streams.
	Seed int64
	// IOTimeout bounds each network operation (default 2 minutes).
	IOTimeout time.Duration
	// DialTimeout bounds the initial connection (default 10 seconds).
	DialTimeout time.Duration
	// SimLatency, when non-nil, sleeps for the returned duration before a
	// round's local training starts — a fault-injection knob that turns
	// this client into a controlled straggler for exercising the server's
	// quorum/deadline/straggler handling in tests, demos and chaos runs.
	// Non-positive durations mean no delay for that round.
	SimLatency func(round int) time.Duration
}

func (c *ClientConfig) validate() error {
	switch {
	case c.Addr == "":
		return errors.New("flnet: client missing server address")
	case c.Data == nil:
		return errors.New("flnet: client missing local data")
	case c.Trainer == nil:
		return errors.New("flnet: client missing trainer")
	case c.Personalizer == nil:
		return errors.New("flnet: client missing personalizer")
	}
	return nil
}

// RunClient joins the federation and serves train/personalize requests
// until the server sends shutdown or ctx is canceled. It returns nil on a
// clean shutdown.
func RunClient(ctx context.Context, cfg ClientConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = 2 * time.Minute
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	d := net.Dialer{Timeout: cfg.DialTimeout}
	raw, err := d.DialContext(ctx, "tcp", cfg.Addr)
	if err != nil {
		return fmt.Errorf("flnet: dial %s: %w", cfg.Addr, err)
	}
	// Preamble exchange before any gob traffic: a server from an
	// incompatible build yields a clean typed ErrProtocolMismatch here
	// rather than a gob decode failure later.
	if err := writePreamble(raw, cfg.IOTimeout); err != nil {
		_ = raw.Close()
		return err
	}
	if err := readPreamble(raw, cfg.IOTimeout); err != nil {
		_ = raw.Close()
		return fmt.Errorf("handshake with %s: %w", cfg.Addr, err)
	}
	c := newConn(raw, cfg.IOTimeout, MaxFrameBytes)
	defer c.close()

	if err := c.send(&Envelope{Type: MsgJoin, ClientID: cfg.ClientID}); err != nil {
		return err
	}
	ack, err := c.recv()
	if err != nil {
		return err
	}
	if ack.Type == MsgError {
		return fmt.Errorf("flnet: join rejected: %s", ack.Err)
	}
	if ack.Type != MsgJoinAck {
		return fmt.Errorf("flnet: expected join-ack, got %s", ack.Type)
	}

	for {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("flnet: client %d: %w", cfg.ClientID, err)
		}
		// env.Global lives in the connection's receive buffer, which the next
		// recv overwrites: trainers and personalizers read the global during
		// their call and keep no reference to it (fl.Trainer).
		env, err := c.recv()
		if err != nil {
			return err
		}
		switch env.Type {
		case MsgTrain:
			if cfg.SimLatency != nil {
				if d := cfg.SimLatency(env.Round); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return fmt.Errorf("flnet: client %d: %w", cfg.ClientID, ctx.Err())
					}
				}
			}
			rng := fl.ClientRNG(cfg.Seed, env.Round, cfg.ClientID)
			update, terr := cfg.Trainer.Train(ctx, rng, cfg.Data, env.Global, env.Round)
			if terr != nil {
				_ = c.send(&Envelope{Type: MsgError, ClientID: cfg.ClientID, Err: terr.Error()})
				return fmt.Errorf("flnet: client %d train: %w", cfg.ClientID, terr)
			}
			if err := c.send(&Envelope{Type: MsgTrainResult, ClientID: cfg.ClientID, Round: env.Round, Update: update}); err != nil {
				return err
			}
		case MsgPersonalize:
			rng := fl.ClientRNG(cfg.Seed, fl.PersonalizeRound, cfg.ClientID)
			acc, perr := cfg.Personalizer.Personalize(ctx, rng, cfg.Data, env.Global)
			if perr != nil {
				_ = c.send(&Envelope{Type: MsgError, ClientID: cfg.ClientID, Err: perr.Error()})
				return fmt.Errorf("flnet: client %d personalize: %w", cfg.ClientID, perr)
			}
			if err := c.send(&Envelope{Type: MsgPersonalizeResult, ClientID: cfg.ClientID, Accuracy: acc}); err != nil {
				return err
			}
		case MsgShutdown:
			return nil
		case MsgError:
			return fmt.Errorf("flnet: server error: %s", env.Err)
		default:
			return fmt.Errorf("flnet: unexpected message %s", env.Type)
		}
	}
}
